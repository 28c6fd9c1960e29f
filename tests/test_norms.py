import math

import numpy as np
import pytest

from normdescent import (
    BlockMax,
    BlockPartition,
    Euclidean,
    Max,
    One,
    WeightedDiag,
    dual_norm,
    norm,
    sign_unit,
    steepest_op,
)
from normdescent.norms import _signed, dual_norm_rows

KINDS_D4 = [
    Euclidean(),
    Max(),
    One(),
    WeightedDiag((0.5, 1.0, 2.0, 4.0)),
    BlockMax(BlockPartition(((0, 1), (2, 3)))),
]


def _dual_maximizer(z, kind):
    """A vector x with ||x|| = 1 and <z, x> = ||z||*, built per definition."""
    z = np.asarray(z, dtype=float)
    if isinstance(kind, Euclidean):
        return z / math.sqrt(z @ z)
    if isinstance(kind, Max):
        return sign_unit(z)
    if isinstance(kind, One):
        i = int(np.argmax(np.abs(z)))
        out = np.zeros_like(z)
        out[i] = 1.0 if z[i] >= 0 else -1.0
        return out
    if isinstance(kind, WeightedDiag):
        w = np.asarray(kind.weights)
        x = z / w
        return x / norm(x, kind)
    if isinstance(kind, BlockMax):
        out = np.zeros_like(z)
        for b in kind.partition.blocks:
            idx = list(b)
            nb = math.sqrt(z[idx] @ z[idx])
            if nb > 0:
                out[idx] = z[idx] / nb
        return out
    raise TypeError(kind)


class TestNormValues:
    def test_euclidean(self):
        assert norm([3.0, -4.0], Euclidean()) == 5.0

    def test_max_and_one(self):
        assert norm([1.0, -2.0, 0.0], Max()) == 2.0
        assert norm([1.0, -2.0, 0.0], One()) == 3.0

    def test_weighted(self):
        assert norm([2.0, 2.0], WeightedDiag((1.0, 4.0))) == pytest.approx(math.sqrt(20.0))

    def test_blockmax(self):
        kind = BlockMax(BlockPartition(((0, 1), (2,))))
        assert norm([3.0, 4.0, 6.0], kind) == 6.0
        assert dual_norm([3.0, 4.0, 6.0], kind) == 11.0

    def test_dual_pairs(self):
        assert dual_norm([1.0, -2.0], Max()) == 3.0  # one-norm
        assert dual_norm([3.0, 4.0], Euclidean()) == 5.0  # self-dual
        assert dual_norm([1.0, -2.0], One()) == 2.0  # max-norm
        assert dual_norm([2.0, 2.0], WeightedDiag((1.0, 4.0))) == pytest.approx(math.sqrt(5.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            norm([1.0, 2.0], WeightedDiag((1.0, 2.0, 3.0)))
        with pytest.raises(ValueError):
            dual_norm([1.0, 2.0], BlockMax(BlockPartition(((0, 1, 2),))))
        with pytest.raises(ValueError):
            dual_norm_rows(np.ones((3, 2)), WeightedDiag((1.0, 2.0, 3.0)))

    @pytest.mark.parametrize("kind", KINDS_D4, ids=lambda k: type(k).__name__)
    def test_rows_match_one_vector_at_a_time(self, kind):
        X = np.random.default_rng(4).standard_normal((50, 4)) * np.logspace(-3, 3, 50)[:, None]
        X[7] = 0.0
        rows = dual_norm_rows(X, kind)
        assert rows.shape == (50,)
        each = np.array([dual_norm(x, kind) for x in X])
        assert np.allclose(rows, each, rtol=1e-15, atol=0.0)
        assert dual_norm_rows(X[:0], kind).shape == (0,)


class TestSignUnit:
    def test_zero_and_nan(self):
        assert sign_unit(-0.0) == 1.0
        assert sign_unit(0.0) == 1.0
        assert sign_unit(math.nan) == -1.0

    def test_array(self):
        z = np.array([-0.0, 0.0, math.nan, -math.inf, math.inf, -1e-300, 2.0])
        out = sign_unit(z)
        assert out.dtype == np.float64 and out.flags.writeable
        assert out.tolist() == [1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0]


class TestSignUnitStack:
    def test_matches_the_comparison_on_a_stack(self):
        z = np.random.default_rng(8).standard_normal((3, 5, 4))
        z[0, 0] = [-0.0, 0.0, math.nan, -math.nan]
        z[1, 2] = [math.inf, -math.inf, 5e-324, -5e-324]
        out = sign_unit(z)
        assert out.shape == z.shape and out.dtype == np.float64
        assert out.tobytes() == np.where(z >= 0.0, 1.0, -1.0).tobytes()
        assert out[0, 0].tolist() == [1.0, 1.0, -1.0, -1.0]
        assert out[1, 2].tolist() == [1.0, -1.0, 1.0, -1.0]


class TestSigned:
    """_signed(mag, z), the sign steps' one copysign, has the bits of sign_unit(z) * mag."""

    Z = np.concatenate([
        [-0.0, 0.0, -math.inf, math.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308],
        np.random.default_rng(9).standard_normal(24),
    ])

    @pytest.mark.parametrize("mag", [0.0, 5e-324, 0.3, 1e308, math.inf, "array"])
    def test_bits_of_the_product_with_sign_unit(self, mag):
        mag = np.abs(np.random.default_rng(10).standard_normal(self.Z.size)) if mag == "array" else mag
        assert _signed(mag, self.Z).tobytes() == (sign_unit(self.Z) * mag).tobytes()

    def test_a_stack_with_one_magnitude_per_row(self):
        z = self.Z.reshape(2, 4, 4)
        mag = np.abs(z).sum(axis=-1, keepdims=True) / np.full((2, 1, 1), 3.0)
        assert _signed(mag, z).tobytes() == (sign_unit(z) * mag).tobytes()

    def test_nan_magnitude_stays_nan(self):
        assert np.isnan(_signed(math.nan, self.Z)).all()


class TestCheckedEntryPoints:
    """dual_norm and steepest_op check what the methods of the kind they call do not."""

    @pytest.mark.parametrize("kind", [
        WeightedDiag((1.0, 2.0, 3.0)), BlockMax(BlockPartition(((0, 1, 2),))),
    ], ids=lambda k: type(k).__name__)
    def test_wrong_dimension(self, kind):
        for fn in (dual_norm, steepest_op):
            with pytest.raises(ValueError):
                fn([1.0, 2.0], kind)

    @pytest.mark.parametrize("kind", ["max", None, Euclidean])
    def test_unknown_kind(self, kind):
        for fn in (dual_norm, steepest_op):
            with pytest.raises(TypeError, match="unknown norm kind"):
                fn([1.0, 2.0], kind)

    def test_euclidean_direction_is_a_copy(self):
        z = np.array([1.0, -2.0])
        p = steepest_op(z, Euclidean())
        assert p is not z and p.tolist() == [1.0, -2.0]
        p[0] = 7.0
        assert z[0] == 1.0


class TestEuclideanUnderflow:
    """Nonzero vectors whose squares underflow keep a nonzero, accurate norm."""

    def test_tiny_vectors(self):
        assert dual_norm([1e-200, 0.0], Euclidean()) == 1e-200
        assert norm([3e-200, 4e-200], Euclidean()) == pytest.approx(5e-200, rel=1e-15, abs=0.0)
        assert norm([5e-324, 0.0], Euclidean()) == 5e-324
        assert steepest_op([1e-200, 1.0], BlockMax(BlockPartition(((0,), (1,))))).tolist() == [1.0, 1.0]
        X = np.array([[3e-200, 4e-200], [0.0, 0.0], [3.0, 4.0], [1e-160, 0.0]])
        rows = dual_norm_rows(X, Euclidean())
        assert rows.tolist() == [pytest.approx(5e-200, rel=1e-15, abs=0.0), 0.0, 5.0, 1e-160]

    def test_tiny_weighted_and_block_norms(self):
        weights = WeightedDiag((4.0, 1.0))
        assert norm([1e-200, 0.0], weights) == pytest.approx(2e-200, rel=1e-15, abs=0.0)
        assert dual_norm([1e-200, 0.0], weights) == pytest.approx(5e-201, rel=1e-15, abs=0.0)
        assert dual_norm_rows(np.array([[1e-200, 0.0], [0.0, 0.0]]), weights).tolist() == [
            pytest.approx(5e-201, rel=1e-15, abs=0.0), 0.0]
        blocks = BlockMax(BlockPartition(((0, 1), (2,))))
        assert dual_norm([3e-200, 4e-200, 1e-200], blocks) == pytest.approx(6e-200, rel=1e-15, abs=0.0)

    def test_zero_and_non_finite_vectors_are_not_rescaled(self):
        assert dual_norm([0.0, -0.0], Euclidean()) == 0.0
        assert math.isnan(dual_norm([math.nan, 0.0], Euclidean()))
        rows = dual_norm_rows(np.array([[0.0, 0.0], [math.nan, 1e-200], [math.inf, 0.0]]), Euclidean())
        assert rows[0] == 0.0 and math.isnan(rows[1]) and rows[2] == math.inf


class TestEuclideanOverflow:
    """Finite vectors whose squares overflow get a finite Euclidean norm;
    every other vector keeps the bits of sqrt(x'x)."""

    def test_huge_finite_vectors(self):
        x = np.array([3e200, -4e200, 1.0])
        with np.errstate(over="ignore"):  # the plain product overflows first
            assert norm(x, Euclidean()) == pytest.approx(5e200, rel=1e-15)
            assert dual_norm(x, Euclidean()) == pytest.approx(5e200, rel=1e-15)
            assert dual_norm(np.array([1e308, 1e308]), Euclidean()) == pytest.approx(
                math.sqrt(2.0) * 1e308, rel=1e-15)
            assert dual_norm(np.array([1.5e308, 1.5e308]), Euclidean()) == math.inf
            rows = dual_norm_rows(
                np.array([[3e200, -4e200], [3.0, 4.0], [math.inf, 0.0], [math.nan, 1.0], [1e300, 0.0]]),
                Euclidean(),
            )
        assert rows[:3].tolist() == [pytest.approx(5e200, rel=1e-15), 5.0, math.inf]
        assert math.isnan(rows[3]) and rows[4] == 1e300

    def test_rows_match_one_vector_at_a_time(self):
        X = np.random.default_rng(5).standard_normal((40, 6)) * np.logspace(-100, 300, 40)[:, None]
        with np.errstate(over="ignore"):
            rows = dual_norm_rows(X, Euclidean())
            each = [dual_norm(x, Euclidean()) for x in X]
        assert np.isfinite(rows).all()
        assert np.allclose(rows, each, rtol=1e-15, atol=0.0)

    def test_normal_range_keeps_its_bits(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((200, 8)) * 10.0 ** rng.uniform(-150, 150, (200, 1))
        rows = dual_norm_rows(X, Euclidean())
        for x, r in zip(X, rows):
            plain = float(np.sqrt(np.dot(x, x)))
            assert norm(x, Euclidean()) == plain
            assert dual_norm(x, Euclidean()) == plain
            assert r == np.sqrt(x[None, :] @ x[:, None])[0, 0]


class TestWeightedAndBlockOverflow:
    """Weighted and block-max norms of finite vectors whose squares overflow
    stay finite; every other vector keeps the bits of the plain formula."""

    BLOCKS = BlockMax(BlockPartition(((0, 1), (2,))))
    WEIGHTS = WeightedDiag((1.0, 2.0))

    def test_huge_finite_vectors(self):
        x = np.array([1e200, 1e200, 1.0])  # block norms sqrt(2) 1e200 and 1
        y = np.array([1e200, 1e200])
        r2, r3, r15 = (math.sqrt(v) * 1e200 for v in (2.0, 3.0, 1.5))
        with np.errstate(over="ignore"):  # the plain products overflow first
            assert norm(x, self.BLOCKS) == pytest.approx(r2, rel=1e-15)
            assert dual_norm(x, self.BLOCKS) == pytest.approx(r2, rel=1e-15)
            rows = dual_norm_rows(np.array([x, [3.0, 4.0, 6.0], [math.inf, 0.0, 0.0]]), self.BLOCKS)
            op = steepest_op(x, self.BLOCKS)
            assert norm(y, self.WEIGHTS) == pytest.approx(r3, rel=1e-15)
            assert dual_norm(y, self.WEIGHTS) == pytest.approx(r15, rel=1e-15)
            wrows = dual_norm_rows(np.array([y, [2.0, 2.0], [math.nan, 1.0]]), self.WEIGHTS)
            wop = steepest_op(y, self.WEIGHTS)
            # a small block scaled up to the dual norm: total / nb overflows, the result does not
            singles = steepest_op([1e-150, 1e200], BlockMax(BlockPartition(((0,), (1,)))))
        assert rows.tolist() == [pytest.approx(r2, rel=1e-15), 11.0, math.inf]
        assert op.tolist() == [1e200, 1e200, pytest.approx(r2, rel=1e-15)]
        assert wrows[:2].tolist() == [pytest.approx(r15, rel=1e-15), math.sqrt(6.0)]
        assert math.isnan(wrows[2])
        assert wop.tolist() == [1e200, 5e199]
        assert singles.tolist() == [1e200, 1e200]

    def test_normal_range_keeps_its_bits(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-150, 150, (200, 1))
        w = np.array([0.5, 2.0, 4.0])
        weights = WeightedDiag(tuple(w))
        wrows = dual_norm_rows(X, weights)
        brows = dual_norm_rows(X, self.BLOCKS)
        for x, wr, br in zip(X, wrows, brows):
            assert norm(x, weights) == float(np.sqrt(np.dot(w * x, x)))
            assert dual_norm(x, weights) == float(np.sqrt(np.dot(x / w, x)))
            assert wr == np.sqrt((x / w)[None, :] @ x[:, None])[0, 0]
            head = math.sqrt(x[:2].dot(x[:2]))
            assert dual_norm(x, self.BLOCKS) == head + abs(x[2])
            assert br == np.sqrt(x[None, :2] @ x[:2, None])[0, 0] + abs(x[2])


class TestSteepestOp:
    def test_max_closed_form(self):
        assert np.array_equal(steepest_op([1.0, -2.0], Max()), [3.0, -3.0])

    def test_one_closed_form(self):
        assert np.array_equal(steepest_op([1.0, -2.0], One()), [0.0, -2.0])

    def test_one_tie_break_smallest_index(self):
        assert np.array_equal(steepest_op([2.0, -2.0], One()), [2.0, 0.0])

    def test_zero_maps_to_zero(self):
        z = np.zeros(4)
        for kind in KINDS_D4:
            assert np.array_equal(steepest_op(z, kind), z)

    def test_weighted_componentwise(self):
        out = steepest_op([2.0, 2.0], WeightedDiag((1.0, 4.0)))
        assert np.array_equal(out, [2.0, 0.5])

    def test_blockmax_zero_block(self):
        kind = BlockMax(BlockPartition(((0, 1), (2, 3))))
        out = steepest_op([0.0, 0.0, 3.0, 4.0], kind)
        assert np.array_equal(out[:2], [0.0, 0.0])
        assert np.allclose(out[2:], [3.0, 4.0])  # dual norm 5 times unit block

    def test_dual_identities_on_random_vectors(self):
        # ||P(z)||^2 == <z, P(z)> and ||P(z)|| == ||z||*, 1000 draws per kind
        rng = np.random.default_rng(17)
        for kind in KINDS_D4:
            for _ in range(1000):
                z = rng.standard_normal(4) * 10.0 ** rng.integers(-3, 4)
                p = steepest_op(z, kind)
                np_ = norm(p, kind)
                dn = dual_norm(z, kind)
                assert np_ * np_ == pytest.approx(float(z @ p), rel=1e-10, abs=1e-300)
                assert np_ == pytest.approx(dn, rel=1e-10, abs=1e-300)

    def test_optimality_against_perturbations(self):
        # P(z) maximizes <z, x> - ||x||^2/2; perturbed candidates never beat it
        rng = np.random.default_rng(23)
        for kind in KINDS_D4:
            z = rng.standard_normal(4) * 3.0
            p = steepest_op(z, kind)
            best = float(z @ p) - 0.5 * norm(p, kind) ** 2
            for _ in range(100):
                x = p + rng.standard_normal(4) * rng.uniform(0.01, 3.0)
                val = float(z @ x) - 0.5 * norm(x, kind) ** 2
                assert val <= best + 1e-10

    def test_blockmax_singletons_reduce_to_max(self):
        kind = BlockMax(BlockPartition(((0,), (1,), (2,), (3,))))
        rng = np.random.default_rng(29)
        for _ in range(200):
            z = rng.standard_normal(4)
            assert norm(z, kind) == pytest.approx(norm(z, Max()), rel=1e-12)
            assert dual_norm(z, kind) == pytest.approx(dual_norm(z, Max()), rel=1e-12)
            # the operators agree where no coordinate is zero (the sign(0)
            # convention makes the max-norm operator move zero coordinates)
            assert np.allclose(steepest_op(z, kind), steepest_op(z, Max()), atol=1e-12)

    def test_max_step_has_the_bits_of_the_operator_over_c_in_every_call_form(self):
        # the runners step a vector with dual None and a 0-d c (constant step),
        # with dual = c (normalized) and with dual != c (relaxed); the grid a (K, R, d) stack
        rng = np.random.default_rng(31)
        G = rng.standard_normal((3, 5, 8)) * 10.0 ** rng.integers(-300, 300, size=(3, 5, 1))
        G[0, 0] = 0.0
        G[0, 1, ::2] = 0.0
        G[1, 0, :3] = [1e308, -1e308, 1e308]  # a one-norm that overflows
        G[1, 1, 0] = -1e300
        c = rng.uniform(0.1, 100.0, size=(3, 1, 1))
        step = Max().step
        with np.errstate(over="ignore"):
            ref = np.array([[steepest_op(g, Max()) / c[k, 0, 0] for g in G[k]] for k in range(3)])
            assert step(G, c).tobytes() == ref.tobytes()
            for k in range(3):
                for g, want in zip(G[k], ref[k]):
                    dual = dual_norm(g, Max())
                    assert step(g, np.array(c[k, 0, 0])).tobytes() == want.tobytes()
                    assert step(g, float(c[k, 0, 0]), dual).tobytes() == want.tobytes()
                    if 0.0 < dual < math.inf:
                        assert step(g, dual, dual).tobytes() == (steepest_op(g, Max()) / dual).tobytes()


class TestHoelder:
    def test_random_pairs_and_maximizers(self):
        rng = np.random.default_rng(31)
        for kind in KINDS_D4:
            for _ in range(1000):
                x = rng.standard_normal(4)
                z = rng.standard_normal(4)
                assert float(x @ z) <= norm(x, kind) * dual_norm(z, kind) + 1e-10
            for _ in range(50):
                z = rng.standard_normal(4)
                xstar = _dual_maximizer(z, kind)
                assert norm(xstar, kind) == pytest.approx(1.0, rel=1e-10)
                assert float(z @ xstar) == pytest.approx(dual_norm(z, kind), rel=1e-10)

    def test_norm_sandwich(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            d = rng.integers(1, 9)
            z = rng.standard_normal(d)
            linf = norm(z, Max())
            l2 = norm(z, Euclidean())
            l1 = norm(z, One())
            eps = 1e-12 * max(1.0, l1)
            assert linf <= l2 + eps
            assert l2 <= l1 + eps
            assert l1 <= math.sqrt(d) * l2 + eps
            assert math.sqrt(d) * l2 <= d * linf + eps


class TestBlockPartition:
    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            BlockPartition(((0, 1), (3,)))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            BlockPartition(((0, 1), (1, 2)))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            BlockPartition(((0, 1), ()))

    def test_index_is_a_slice_for_consecutive_ascending_blocks(self):
        part = BlockPartition(((0, 1, 2), (5,), (3, 4), (7, 6), (8, 10), (9,)))
        assert part.index[:3] == (slice(0, 3), slice(5, 6), slice(3, 5))
        assert [i.tolist() for i in part.index[3:5]] == [[7, 6], [8, 10]]
        assert part.index[5] == slice(9, 10)
        x = np.arange(11.0) * 10.0
        assert [x[i].tolist() for i in part.index] == [[x[j] for j in b] for b in part.blocks]
        assert not part.index[3].flags.writeable

    def test_index_leaves_equality_and_hash_alone(self):
        a = BlockPartition(((0, 2), (1,)))
        b = BlockPartition([[0, 2], [1]])
        assert a == b and hash(a) == hash(b) and "index" not in repr(a)


def test_weighted_arrays_are_no_fields():
    a, b = WeightedDiag((1.0, 4.0)), WeightedDiag([1, 4])
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "WeightedDiag(weights=(1.0, 4.0))"
    assert a.w.tolist() == [1.0, 4.0] and a.root.tolist() == [1.0, 2.0]
    assert not a.w.flags.writeable and not a.root.flags.writeable


def _blocks_reference(z, kind):
    """norm, dual norm and P(z) of a block-max norm, blocks selected by lists."""
    norms = [float(np.sqrt(np.dot(z[list(b)], z[list(b)]))) for b in kind.partition.blocks]
    total = sum(norms)
    out = np.zeros(z.shape)
    for b, nb in zip(kind.partition.blocks, norms):
        if nb > 0.0:
            out[list(b)] = z[list(b)] * (total / nb)
    return max(norms), total, out


@pytest.mark.parametrize("blocks", [
    ((0, 2, 4), (1, 3, 5, 6, 7)),
    ((0, 1, 2, 3), (4, 5, 6, 7)),
    ((7, 6), (0,), (1, 2, 3, 4, 5)),
    ((0, 1, 2, 3, 4, 5, 6, 7),),
], ids=str)
def test_blockmax_is_bit_identical_to_list_indexing(blocks):
    kind = BlockMax(BlockPartition(blocks))
    rng = np.random.default_rng(41)
    for _ in range(200):
        z = rng.standard_normal(8) * 10.0 ** rng.integers(-5, 6)
        z[rng.integers(8)] = 0.0
        if rng.random() < 0.2:
            z[list(blocks[0])] = 0.0
        nmax, total, out = _blocks_reference(z, kind)
        assert norm(z, kind) == nmax
        assert dual_norm(z, kind) == total
        assert steepest_op(z, kind).tobytes() == out.tobytes()


@pytest.mark.parametrize("kind", [
    Euclidean(),
    Max(),
    One(),
    WeightedDiag((0.3, 1.0, 1.7, 2.0, 0.5, 3.1, 7.0, 0.9)),
    BlockMax(BlockPartition(((0, 1, 2, 3), (4, 5, 6, 7)))),  # blocks selected by slices
    BlockMax(BlockPartition(((0, 2, 4, 6), (1, 3, 5, 7)))),  # blocks selected by index arrays
], ids=repr)
def test_rows_are_bit_identical_to_dual_norm(kind):
    # a trace's dual column reduces a chunk of rows at once, a run's stopping test and update one row alone
    rng = np.random.default_rng(0)
    X = rng.standard_normal((1000, 8))
    X[::7, rng.integers(8)] = 0.0  # rows with a zero coordinate, and so some with a zero block
    scaled = [X[:200] * s for s in (1e-160, 1e160, 1e-310)]  # rescaled paths: tiny, huge, subnormal
    X = np.concatenate([X, np.zeros((2, 8)), *scaled])
    with np.errstate(over="ignore"):  # the plain squares of the huge rows overflow before their rescaling
        each = np.array([dual_norm(x, kind) for x in X])
        rows = dual_norm_rows(X, kind)
    assert rows.tobytes() == each.tobytes()


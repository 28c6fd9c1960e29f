import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from normdescent import (
    BlockMax,
    BlockPartition,
    Euclidean,
    Max,
    One,
    WeightedDiag,
    dual_norm,
    gradient_density,
    kind_from_json,
    kind_to_json,
    norm,
    sign_unit,
    steepest_op,
)
from normdescent.norms import dual_norm_rows

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


finite_vecs = arrays(
    np.float64,
    st.integers(min_value=1, max_value=8),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestGradientDensity:
    def test_examples(self):
        assert gradient_density([1.0, 1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert gradient_density([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert gradient_density([3.0, 4.0]) == pytest.approx(0.98)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            gradient_density(np.zeros(3))

    @settings(deadline=None)
    @given(finite_vecs, st.floats(min_value=-1e3, max_value=1e3).filter(lambda c: abs(c) > 1e-3))
    def test_scale_invariance_and_range(self, z, c):
        if not np.any(z):
            return
        val = gradient_density(z)
        assert 1.0 / z.size <= val <= 1.0
        assert gradient_density(c * z) == pytest.approx(val, rel=1e-12)


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


class TestJson:
    @pytest.mark.parametrize("kind", KINDS_D4)
    def test_roundtrip(self, kind):
        assert kind_from_json(kind_to_json(kind)) == kind

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            kind_from_json("spectral")

import itertools
import math

import numpy as np
import pytest
from conftest import random_pd_2x2, random_psd, random_sym

from normdescent import (
    BlockMax,
    BlockPartition,
    Euclidean,
    GridConfig,
    Max,
    One,
    OrthogonalMatrix,
    SymMatrix,
    WeightedDiag,
    analyze,
    eigh,
    exp_skew,
    linf_bruteforce,
    lsep_rowsum,
    make_quadratic,
    quad_oracle,
    random_skew,
    rho_diag,
    rotate_spectrum,
    smoothness_constant,
)
from normdescent import analysis
from normdescent.analysis import _eigenspace_bound

H_2x2 = SymMatrix([[2.0, 1.0], [1.0, 3.0]])


def bruteforce_oracle(H):
    """Plain itertools enumeration of max ||Hs||_1, independent of the fast path."""
    a = H.to_array()
    return max(
        float(np.abs(a @ np.array(s)).sum())
        for s in itertools.product([-1.0, 1.0], repeat=H.dim)
    )


class TestLinfBruteforce:
    def test_2x2_closed_form(self):
        assert linf_bruteforce(H_2x2) == pytest.approx(7.0, abs=1e-12)

    def test_identity(self):
        assert linf_bruteforce(SymMatrix(np.diag([1.0, 1.0, 1.0]))) == 3.0
        # d = 24 off the axes: every sign vector ties at the row-sum bound, up to rounding
        rotated = rotate_spectrum(np.ones(24), exp_skew(random_skew(24, np.random.default_rng(0)), 0.7))
        assert linf_bruteforce(rotated) == pytest.approx(24.0, rel=1e-12)

    def test_diagonal(self):
        assert linf_bruteforce(SymMatrix(np.diag([1.0, 1.0, 1.0, 1.0, 50.0]))) == 54.0
        assert linf_bruteforce(SymMatrix(np.diag(np.arange(1.0, 25.0)))) == 300.0  # d = 24, all tie

    def test_matches_plain_enumeration(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3, 7, 11):
            h = random_sym(rng, d)
            assert linf_bruteforce(h) == pytest.approx(bruteforce_oracle(h), rel=1e-12)

    @pytest.mark.parametrize("d", [14, 16])
    def test_matches_plain_enumeration_across_the_table(self, d):
        # d=14 fills the 13-bit sign table exactly; d=16 adds 4 high blocks
        rng = np.random.default_rng(d)
        g = rng.standard_normal((d, d))
        mats = [
            random_sym(rng, d),  # the block bound prunes little
            rotate_spectrum(  # one dominant eigenvector: almost every block pruned
                np.concatenate([np.ones(d - 1), [50.0]]), exp_skew(random_skew(d, rng), 0.5)
            ),
            SymMatrix(np.ones((d, d))),  # many blocks tie at the maximum
            SymMatrix(np.diag(np.ones(d))),
            # negative dominant direction: rows peak at the low end of the table
            SymMatrix(0.1 * np.eye(d) - np.outer(g[0], g[0])),
        ]
        for h in mats:
            assert linf_bruteforce(h) == pytest.approx(bruteforce_oracle(h), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_near_ties_across_blocks(self, seed):
        # a diagonal plus 1e-6 noise: the 4 blocks' bounds and maxima differ by
        # a relative 1e-7 or less, so only an exact bound keeps the maximum
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((16, 16))
        h = SymMatrix(np.diag(rng.uniform(1.0, 2.0, 16)) + 1e-6 * (g + g.T))
        assert linf_bruteforce(h) == pytest.approx(bruteforce_oracle(h), rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_never_above_the_row_sum_total(self, seed):
        # spike spectra under a QR rotation: the column check settles each one with a
        # sum in another order than lsep_rowsum's, which can be an ulp larger
        rng = np.random.default_rng(seed)
        for d in (8, 16, 64):
            q = OrthogonalMatrix(np.linalg.qr(rng.standard_normal((d, d)))[0])
            for lam in (2.0, 5.0, 50.0, 100.0):
                h = rotate_spectrum(np.concatenate([np.ones(d - 1), [lam]]), q)
                assert linf_bruteforce(h) <= lsep_rowsum(h)[1]

    def test_one_dimension(self):
        assert linf_bruteforce(SymMatrix([[-3.0]])) == 3.0

    def test_crosses_the_table_split(self):
        # d=18 walks 16 blocks of high coordinates over the 13-bit table
        h = random_sym(np.random.default_rng(5), 18)
        a = h.to_array()
        val = linf_bruteforce(h)
        rng = np.random.default_rng(6)
        sampled = max(
            float(np.abs(a @ (1.0 - 2.0 * rng.integers(0, 2, 18))).sum())
            for _ in range(2000)
        )
        assert sampled <= val + 1e-9

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dimension too large"):
            linf_bruteforce(_two_spikes(25))

    def test_off_family_above_the_cap_names_the_cap(self):
        with pytest.raises(ValueError, match=r"^dimension too large for exact norm: d=32 exceeds cap 24$"):
            linf_bruteforce(_two_spikes(32))


def _two_spikes(d: int) -> SymMatrix:
    """An off-family matrix: spectrum (1, ..., 1, 20, 50) rotated at theta = 0.5,
    whose column sign patterns stay below the row-sum bound."""
    skew = random_skew(d, np.random.default_rng(4))
    return rotate_spectrum(np.r_[np.ones(d - 2), 20.0, 50.0], exp_skew(skew, 0.5))


def _count_tables(monkeypatch):
    """Counts the sign tables linf_bruteforce builds, i.e. how often it walks."""
    built = []
    table = analysis._sign_table
    monkeypatch.setattr(analysis, "_sign_table", lambda n: built.append(n) or table(n))
    return built


def _no_tables(n):
    raise AssertionError("the sign-table walk ran")


class TestLinfCertificate:
    """The column-sign-pattern check that runs before any enumeration."""

    def test_sound_on_random_matrices(self, monkeypatch):
        built = _count_tables(monkeypatch)
        rng = np.random.default_rng(11)
        certified = walked = 0
        for d in (2, 3, 5, 8, 10):
            u = rng.standard_normal(d)
            mats = [
                random_psd(rng, d),
                random_sym(rng, d),
                SymMatrix(np.eye(d) + 9.0 * np.outer(u, u) + 0.01 * random_sym(rng, d).to_array()),
                SymMatrix(-np.outer(u, u) + 0.3 * random_psd(rng, d).to_array()),
            ] + [
                # near a diagonal: the column patterns come within ~eps of the
                # row-sum bound, and often miss the maximum by about as much
                SymMatrix(np.diag(rng.uniform(-2.0, 2.0, d)) + eps * random_sym(rng, d).to_array())
                for eps in (1e-4, 1e-7)
            ]
            for h in mats:
                before = len(built)
                val, want = linf_bruteforce(h), bruteforce_oracle(h)
                assert val == pytest.approx(want, rel=1e-12)
                assert val <= want * (1.0 + 1e-14)  # an attained value: above the maximum by rounding at most
                walked += len(built) > before
                certified += len(built) == before
        assert certified >= 5 and walked >= 5  # both paths ran

    @pytest.mark.parametrize("d", [8, 16, 24, 64])
    def test_closes_the_papers_family_without_a_table(self, monkeypatch, d):
        monkeypatch.setattr(analysis, "_sign_table", _no_tables)
        skew = random_skew(d, np.random.default_rng(d))
        for theta in GridConfig.theta_values:
            q = exp_skew(skew, theta)
            u1 = float(np.abs(q.entries[:, -1]).sum())  # ||u||_1 of the top eigenvector
            for lam in GridConfig.lambda_max_values:
                val = linf_bruteforce(rotate_spectrum(np.r_[np.ones(d - 1), lam], q))
                assert val == pytest.approx(d + (lam - 1.0) * u1 * u1, rel=1e-12)

    def test_closes_diagonal_and_rank_one_matrices_without_a_table(self, monkeypatch):
        monkeypatch.setattr(analysis, "_sign_table", _no_tables)
        rng = np.random.default_rng(12)
        for d in (1, 2, 9, 24):
            diag = rng.uniform(-5.0, 5.0, d)
            diag[::3] = 0.0  # zero entries take sign +1
            assert linf_bruteforce(SymMatrix(np.diag(diag))) == pytest.approx(np.abs(diag).sum(), rel=1e-15)
            v = rng.standard_normal(d)
            for sign in (1.0, -1.0):
                h = SymMatrix(sign * np.outer(v, v))
                assert linf_bruteforce(h) == pytest.approx(np.abs(v).sum() ** 2, rel=1e-12)
        assert linf_bruteforce(SymMatrix(np.diag(np.zeros(4)))) == 0.0

    def test_two_spikes_still_walk(self, monkeypatch):
        # the row sum is loose off the family, so only the walk finds the maximum
        built = _count_tables(monkeypatch)
        h = _two_spikes(16)
        val = linf_bruteforce(h)
        assert built
        assert val == pytest.approx(bruteforce_oracle(h), rel=1e-12)
        assert val < lsep_rowsum(h)[1] * (1.0 - 1e-3)


class TestRhoDiag:
    def test_identity(self):
        assert rho_diag(SymMatrix(np.diag([1.0, 1.0, 1.0]))) == 1.0

    def test_2x2(self):
        assert rho_diag(H_2x2) == pytest.approx(5.0 / 7.0)

    def test_all_ones(self):
        d = 6
        assert rho_diag(SymMatrix(np.ones((d, d)))) == pytest.approx(1.0 / d)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            rho_diag(SymMatrix(np.diag([0.0, 0.0])))


class TestLinfBounds:
    def test_diagonal_tight(self):
        rep = analyze(SymMatrix(np.diag([1.0, 2.0])))
        assert rep.bound_psd == pytest.approx(3.0, abs=1e-10)
        assert rep.bound_sym == pytest.approx(3.0, abs=1e-10)
        assert rep.lower_bound == pytest.approx(3.0, abs=1e-10)  # the all-ones column pattern attains Linf

    def test_2x2_concentration_bound_tight(self):
        assert analyze(H_2x2).bound_psd == pytest.approx(7.0, rel=1e-12)

    def test_tiny_zero_diagonal_matrix_has_no_concentration_bound(self):
        # eigenvalues +-4.7e-234 pass the PSD tolerance, but rho_diag is 0
        H = SymMatrix([[0.0, 4.6847355763135294e-234], [4.6847355763135294e-234, 0.0]])
        assert analyze(H).bound_psd is None

    def test_non_psd_suppresses_concentration_bound(self):
        rep = analyze(SymMatrix(np.diag([1.0, -1.0])))
        assert rep.bound_psd is None
        assert rep.bound_sym == pytest.approx(2.0, abs=1e-10)
        assert rep.lower_bound == pytest.approx(2.0, abs=1e-10)  # the all-ones column pattern attains Linf

    @pytest.mark.parametrize("rows", [
        [[0.1, 0.0, 0.0], [0.0, 1.1, 0.0], [0.0, 0.0, 0.3]],
        [[5.0, 1.1], [1.1, 7.0]],
    ], ids=["diagonal", "2x2"])
    def test_upper_bounds_hold_exactly_on_ulp_cases(self, rows):
        # sum(lambda) / rho_diag and the eigenspace sum each came out an ulp below Linf_exact here
        rep = analyze(SymMatrix(rows))
        assert rep.Linf_exact <= rep.bound_psd
        assert rep.Linf_exact <= rep.bound_sym

    def test_lower_bound_holds_exactly_on_rank_one_sign_matrices(self):
        # c * 11' and lam / d * ss' with s in {-1, 1}^d: the eigenvector bound came out
        # an ulp above Linf_exact on some of them, e.g. all 3s at d = 9
        rng = np.random.default_rng(23)
        matrices = [SymMatrix(np.full((d, d), c)) for d in range(1, 25) for c in (0.1, 0.3, 0.7, 3.0, 7.0, 11.0)]
        for d in range(1, 25):
            for lam in (1.0, 3.0, 10.0, 50.0):
                s = rng.choice([-1.0, 1.0], d)
                matrices.append(SymMatrix(lam / d * np.outer(s, s)))
        for h in matrices:
            rep = analyze(h)
            assert rep.lower_bound <= rep.Linf_exact
            assert rep.Linf_exact <= rep.lsep_rowsum

    def test_upper_bounds_hold_exactly_on_the_family_and_diagonals(self):
        family = [
            make_quadratic(d, lam, theta, seed)
            for d, lam, theta, seed in itertools.product((8, 16, 32, 64), (2.0, 50.0), (0.3, 1.0), range(3))
        ]
        rng = np.random.default_rng(3)
        diagonals = [SymMatrix(np.diag(rng.uniform(0.1, 5.0, 2 + i % 7))) for i in range(40)]
        for h in family + diagonals:
            rep = analyze(h)
            assert rep.bound_psd == rep.lsep_rowsum
            assert rep.Linf_exact <= rep.bound_psd
            assert rep.Linf_exact <= rep.bound_sym

    def test_sandwich_on_random_psd(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            h = random_psd(rng, 8)
            exact = linf_bruteforce(h)
            rep = analyze(h)
            assert rep.lower_bound <= exact + 1e-9
            assert exact <= min(rep.bound_psd, rep.bound_sym) + 1e-9


def repeated_spectrum(rng, d):
    """(H, lam): H has the eigenvalue lam with multiplicity >= 2."""
    k = int(rng.integers(2, d + 1))
    lam = rng.uniform(-2.0, 4.0)
    values = np.concatenate([np.full(k, lam), rng.uniform(-3.0, 5.0, d - k)])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return SymMatrix(q * values @ q.T), lam


def per_basis_bound(values, vectors):
    """sum |lambda_i| ||v_i||_1^2, the eigenvector bound of one chosen basis."""
    l1 = np.abs(vectors).sum(axis=0)
    return float((np.abs(values) * l1 * l1).sum())


class TestEigenspaceBound:
    def test_same_for_every_basis_of_an_eigenspace(self):
        rng = np.random.default_rng(71)
        for d in (3, 6, 10, 24):
            H, lam = repeated_spectrum(rng, d)
            dec = eigh(H)
            first = analyze(H).bound_sym
            group = np.flatnonzero(np.abs(dec.eigenvalues - lam) < 1e-9)
            for _ in range(5):
                rotated = dec.eigenvectors.copy()
                r, _ = np.linalg.qr(rng.standard_normal((group.size, group.size)))
                rotated[:, group] = rotated[:, group] @ r
                assert per_basis_bound(dec.eigenvalues, rotated) != pytest.approx(first, rel=1e-6)
                l1 = np.abs(rotated).sum(axis=0)
                assert _eigenspace_bound(dec.eigenvalues, rotated, l1) == pytest.approx(first, rel=1e-12)

    def test_distinct_eigenvalues_keep_the_per_basis_sum(self):
        rng = np.random.default_rng(74)
        for d in (2, 7, 24, 60):
            H = random_sym(rng, d)
            dec = eigh(H)
            assert np.diff(dec.eigenvalues).min() > 1e-6
            assert analyze(H).bound_sym == per_basis_bound(dec.eigenvalues, dec.eigenvectors)

    def test_rotated_identity_is_exact(self):
        rng = np.random.default_rng(72)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        H = SymMatrix(q @ q.T)
        assert analyze(H).bound_sym == pytest.approx(12.0, rel=1e-12)
        assert linf_bruteforce(H) == pytest.approx(12.0, rel=1e-12)

    def test_above_linf_and_below_the_per_basis_bound(self):
        rng = np.random.default_rng(73)
        for i in range(60):
            d = 2 + i % 11
            if i % 3 == 0:
                H, _ = repeated_spectrum(rng, d)
            else:
                H = random_psd(rng, d) if i % 3 == 1 else random_sym(rng, d)
            dec = eigh(H)
            bound = analyze(H).bound_sym
            assert linf_bruteforce(H) <= bound * (1.0 + 1e-12)
            assert bound <= per_basis_bound(dec.eigenvalues, dec.eigenvectors) * (1.0 + 1e-12)


def alignment_ratio(H):
    """max_i |lambda_i| ||v_i||_1 / ||v_i||_inf over the eigenpairs eigh returns:
    the lower bound analyze printed before it took sign patterns."""
    values, vectors = eigh(H)
    return float((np.abs(values) * np.abs(vectors).sum(axis=0) / np.abs(vectors).max(axis=0)).max())


def lower_bound_cases(rng, count):
    """(kind, H) for random PSD, indefinite and rank-2 matrices with d = 2-12."""
    for i in range(count):
        d = 2 + i % 11
        if i % 3 == 0:
            yield "psd", random_psd(rng, d)
        elif i % 3 == 1:
            yield "indefinite", random_sym(rng, d)
        else:
            g = rng.standard_normal((d, 2))
            yield "rank2", SymMatrix(g @ g.T)


def sign_lower_bound_reference(H):
    """max ||H s||_1 over the sign patterns s (sign(0) = +1) of the columns of H
    and, for each group of m eigenvalues, of the m columns of its projector
    V V' with the largest diagonal entries, with entries at most 1e-12 times
    the column's largest set to 0, taken column by column."""
    a = H.to_array()
    values, vectors = eigh(H)
    tol = 1e-12 * max(abs(values[0]), abs(values[-1]))
    columns = list(a.T)
    start = 0
    for i in range(1, H.dim + 1):
        if i == H.dim or values[i] - values[i - 1] > tol:
            v = vectors[:, start:i]
            P = v @ v.T
            top = sorted(range(H.dim), key=lambda j: (-P[j, j], j))[: i - start]
            for j in top:
                c = P[:, j].copy()
                c[np.abs(c) <= 1e-12 * np.abs(c).max()] = 0.0
                columns.append(c)
            start = i
    return max(float(np.abs(a @ np.where(c >= 0.0, 1.0, -1.0)).sum()) for c in columns)


class TestLowerBound:
    """lower_bound is the best ||H s||_1 over the sign patterns of H's
    columns and of one eigenspace projector column per eigenvalue."""

    def test_repeated_eigenvalue_gives_linf(self):
        # H ~ I: the eigenvector ratio printed 8.638 here, and 8.206 once permuted
        H = make_quadratic(16, 1.0, 0.5, 3)
        perm = np.random.default_rng(5).permutation(16)
        for h in (H, SymMatrix(H.to_array()[np.ix_(perm, perm)])):
            rep = analyze(h)
            assert rep.lower_bound == pytest.approx(16.0, rel=1e-12)
            assert rep.lower_bound == rep.Linf_exact

    def test_invariant_under_permutation(self):
        rng = np.random.default_rng(81)
        mats = [make_quadratic(16, lam, 0.5, 3) for lam in (1.0, 1.5, 2.0, 5.0)]
        mats += [h for _, h in lower_bound_cases(rng, 30)]
        mats += [repeated_spectrum(rng, d)[0] for d in (3, 6, 10, 24)]
        # the eigenspaces of kron(A, I_m) are u (x) R^m, so the projector columns
        # are mostly zeros that the solver rounds to either sign
        for n, m in ((4, 2), (12, 2), (40, 2), (8, 3)):
            g = rng.standard_normal((n, n))
            mats.append(SymMatrix(np.kron(g + g.T, np.eye(m))))
        for H in mats:
            perm = rng.permutation(H.dim)
            permuted = SymMatrix(H.to_array()[np.ix_(perm, perm)])
            assert analyze(permuted).lower_bound == pytest.approx(analyze(H).lower_bound, rel=1e-12)

    def test_matches_a_column_by_column_reference(self):
        rng = np.random.default_rng(85)
        mats = [h for _, h in lower_bound_cases(rng, 60)]
        mats += [repeated_spectrum(rng, 3 + i % 10)[0] for i in range(40)]
        for H in mats:
            rep = analyze(H)
            want = min(sign_lower_bound_reference(H), rep.Linf_exact)
            assert rep.lower_bound == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("rows", [
        [[-2, 2, -2, -1], [2, 0, 0, 2], [-2, 0, 2, 0], [-1, 2, 0, 3]],
        [[-1, 3, 1, -1], [3, -1, 2, -2], [1, 2, 3, 3], [-1, -2, 3, 3]],
        [[-1, -1, -2, -1], [-1, -3, 2, 3], [-2, 2, -2, 2], [-1, 3, 2, -3]],
    ])
    def test_same_for_either_sign_of_an_eigenvector(self, rows):
        # each matrix has a simple eigenvector v with an exact zero entry, where the
        # patterns of v and -v differ by more than a sign
        H = SymMatrix(np.array(rows, dtype=float))
        values, vectors = eigh(H)
        a = H.to_array()
        want = analysis._sign_lower_bound(a, values, vectors)
        for signs in itertools.product([-1.0, 1.0], repeat=H.dim):
            assert analysis._sign_lower_bound(a, values, vectors * np.array(signs)) == want

    def test_never_above_linf(self):
        rng = np.random.default_rng(82)
        for _, H in lower_bound_cases(rng, 90):
            values, vectors = eigh(H)
            unclamped = analysis._sign_lower_bound(H.to_array(), values, vectors)
            assert unclamped <= bruteforce_oracle(H) * (1.0 + 1e-12)

    def test_never_below_the_eigenvector_ratio(self):
        rng = np.random.default_rng(83)
        checked = 0
        for kind, H in lower_bound_cases(rng, 180):
            if kind == "rank2" or np.diff(eigh(H).eigenvalues).min() <= 1e-6:
                continue
            assert analyze(H).lower_bound >= alignment_ratio(H) * (1.0 - 1e-12)
            checked += kind == "psd"
        assert checked == 60

    def test_never_below_the_ratio_of_a_projector_column(self):
        # v = P e_i lies in the eigenspace of lam and sign_unit(v) is column i's
        # pattern, so ||H sign(v)||_1 >= |v'H sign(v)| / ||v||_inf = |lam| ||v||_1 / ||v||_inf
        # for each of the m columns with the largest diagonal entries
        rng = np.random.default_rng(84)
        for d in range(3, 13):
            H, lam = repeated_spectrum(rng, d)
            values, vectors = eigh(H)
            v = vectors[:, np.abs(values - lam) < 1e-9]
            P = v @ v.T
            top = np.argsort(-np.diag(P), kind="stable")[: v.shape[1]]
            ratio = abs(lam) * np.abs(P[:, top]).sum(axis=0) / np.abs(P[:, top]).max(axis=0)
            assert analyze(H).lower_bound >= ratio.max() * (1.0 - 1e-9)


class TestLsep:
    def test_rowsum_identity(self):
        l, total = lsep_rowsum(SymMatrix(np.diag([1.0, 1.0, 1.0])))
        assert np.array_equal(l, [1.0, 1.0, 1.0])
        assert total == 3.0

    def test_rowsum_2x2(self):
        l, total = lsep_rowsum(H_2x2)
        assert np.array_equal(l, [3.0, 4.0])
        assert total == 7.0

    def test_rowsum_feasibility_and_chain(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            h = random_psd(rng, 6)
            l, total = lsep_rowsum(h)
            gap = SymMatrix(np.diag(l) - h.to_array())
            assert eigh(gap).eigenvalues[0] >= -1e-10
            assert linf_bruteforce(h) <= total + 1e-9

    def test_exact_2x2_values(self):
        # on a 2x2 the separable optimum is the closed form a + d + 2|b|
        assert lsep_rowsum(H_2x2)[1] == 7.0
        assert lsep_rowsum(SymMatrix(np.diag([1.0, 1.0])))[1] == 2.0
        assert lsep_rowsum(SymMatrix([[2.0, -1.0], [-1.0, 3.0]]))[1] == 7.0

    def test_rowsum_realizes_2x2_closed_form(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            h = random_pd_2x2(rng)
            a = h.to_array()
            l, total = lsep_rowsum(h)
            assert l[0] == pytest.approx(a[0, 0] + abs(a[0, 1]), rel=1e-14)
            assert l[1] == pytest.approx(a[1, 1] + abs(a[0, 1]), rel=1e-14)
            assert total == pytest.approx(a[0, 0] + a[1, 1] + 2.0 * abs(a[0, 1]), rel=1e-12)


def _sampled_blockmax_constant(h, part, rng, n=2000):
    """The largest ||Hx||_* = sum_b ||(Hx)_b||_2 over n random points x of
    the unit block-max sphere, each block of x scaled to unit length: a
    lower estimate of the block-max constant."""
    blocks = [list(b) for b in part.blocks]
    x = rng.standard_normal((n, h.dim))
    for b in blocks:
        x[:, b] /= np.linalg.norm(x[:, b], axis=1, keepdims=True)
    y = x @ h.to_array()
    return float(sum(np.linalg.norm(y[:, b], axis=1) for b in blocks).max())


def _blocks_of(d, size):
    return BlockPartition(tuple(tuple(range(i, min(i + size, d))) for i in range(0, d, size)))


class TestBlockAnalysis:
    def test_block_diagonal_concentration_is_one(self):
        a = np.zeros((4, 4))
        a[:2, :2] = [[2.0, 0.5], [0.5, 1.0]]
        a[2:, 2:] = [[3.0, 0.2], [0.2, 1.5]]
        h = SymMatrix(a)
        part = BlockPartition(((0, 1), (2, 3)))
        top = [eigh(SymMatrix(a[:2, :2])).eigenvalues[-1],
               eigh(SymMatrix(a[2:, 2:])).eigenvalues[-1]]
        # no off-diagonal block: the bound is the sum of the block tops
        assert smoothness_constant(h, BlockMax(part)) == pytest.approx(sum(top), rel=1e-12)

    def test_singleton_partition_reduces_to_diag_concentration(self):
        part = BlockPartition(((0,), (1,)))
        assert smoothness_constant(H_2x2, BlockMax(part)) == pytest.approx(7.0, rel=1e-12)

    def test_zero_matrix_gives_zero(self):
        for part in (BlockPartition(((0, 1), (2, 3))), _blocks_of(4, 1), _blocks_of(4, 4)):
            assert smoothness_constant(SymMatrix(np.zeros((4, 4))), BlockMax(part)) == 0.0

    def test_overflowing_sum_is_rejected(self):
        h = SymMatrix(np.full((3, 3), 5e307))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^smoothness constant overflows"):
            smoothness_constant(h, BlockMax(BlockPartition(((0, 1), (2,)))))

    def test_indefinite_bound_holds_on_samples(self):
        h = SymMatrix(np.diag([1.0, -1.0]))
        part = BlockPartition(((0,), (1,)))
        bound = smoothness_constant(h, BlockMax(part))
        assert bound == 2.0  # the row-sum total
        assert _sampled_blockmax_constant(h, part, np.random.default_rng(2)) <= bound + 1e-12

    def test_psd_matches_the_concentration_quotient(self):
        # on PSD input, lambda_max(H_bb) = ||H_bb||_2, so the block-norm sum is
        # sum_b lambda_max(H_bb) / rho_block, with rho_block the diagonal
        # blocks' share of the total block spectral-norm mass
        rng = np.random.default_rng(31)
        for d, size in [(6, 3), (7, 2), (8, 4), (9, 1), (5, 5)]:
            h = random_psd(rng, d)
            a = h.to_array()
            part = _blocks_of(d, size)
            blocks = [list(b) for b in part.blocks]
            spectra = [np.linalg.eigvalsh(a[np.ix_(b, b)]) for b in blocks]
            tops = [float(v[-1]) for v in spectra]
            diag_norms = [float(np.abs(v).max()) for v in spectra]
            off = sum(2.0 * np.linalg.norm(a[np.ix_(b, c)], 2) for b, c in itertools.combinations(blocks, 2))
            rho_block = sum(diag_norms) / (sum(diag_norms) + off)
            assert smoothness_constant(h, BlockMax(part)) == pytest.approx(sum(tops) / rho_block, rel=1e-12)

    def test_singletons_give_row_sum_and_one_block_gives_l2(self):
        rng = np.random.default_rng(32)
        for d in (1, 2, 5, 8):
            for h in (random_sym(rng, d), random_psd(rng, d)):
                singletons = smoothness_constant(h, BlockMax(_blocks_of(d, 1)))
                assert singletons == pytest.approx(lsep_rowsum(h)[1], rel=1e-12)
                whole = smoothness_constant(h, BlockMax(_blocks_of(d, d)))
                assert whole == pytest.approx(smoothness_constant(h, Euclidean()), rel=1e-12)


class TestSmoothnessConstant:
    def test_one_norm_constant_is_max_entry(self):
        assert smoothness_constant(H_2x2, One()) == 3.0

    def test_weighted_diagonal_case(self):
        h = SymMatrix(np.diag([2.0, 8.0]))
        # constant is max_i h_i / w_i for diagonal input
        assert smoothness_constant(h, WeightedDiag((1.0, 4.0))) == pytest.approx(2.0)

    def test_euclidean_is_top_absolute_eigenvalue(self):
        h = SymMatrix(np.diag([1.0, -4.0, 2.0]))
        assert smoothness_constant(h, Euclidean()) == pytest.approx(4.0)

    def test_max_matches_bruteforce(self):
        assert smoothness_constant(H_2x2, Max()) == linf_bruteforce(H_2x2)

    @pytest.mark.parametrize("kind, a", [
        (Max(), np.full((3, 3), 5e307)),  # finite entries whose sign-vector sums overflow
        (Euclidean(), np.full((2, 2), 1e308)),  # a largest eigenvalue of 2e308
    ], ids=["max", "euclidean"])
    def test_overflowing_constant_is_rejected(self, kind, a):
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="^smoothness constant overflows: matrix entries too large$"):
            smoothness_constant(SymMatrix(a), kind)

    @pytest.mark.parametrize("random_matrix", [random_psd, random_sym], ids=["psd", "indefinite"])
    def test_blockmax_upper_bounds_sampled_norm(self, random_matrix):
        rng = np.random.default_rng(11)
        h = random_matrix(rng, 6)
        part = BlockPartition(((0, 1, 2), (3, 4, 5)))
        bound = smoothness_constant(h, BlockMax(part))
        assert _sampled_blockmax_constant(h, part, rng) <= bound + 1e-9


class TestAnalyze:
    def test_full_report_2x2(self):
        rep = analyze(H_2x2)
        assert rep.L2 == pytest.approx(2.5 + math.sqrt(1.25), rel=1e-12)
        assert rep.Linf_exact == pytest.approx(7.0)
        assert rep.rho_diag == pytest.approx(5.0 / 7.0)
        assert rep.bound_psd == pytest.approx(7.0, rel=1e-12)
        assert rep.lsep_rowsum == 7.0
        assert rep.ratio_dL2_over_Linf == pytest.approx(2 * rep.L2 / 7.0, rel=1e-12)

    def test_report_invariants(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            h = random_psd(rng, 7)
            rep = analyze(h)
            assert rep.L2 <= rep.Linf_exact + 1e-9
            assert rep.Linf_exact <= 7 * rep.L2 + 1e-9
            assert rep.lower_bound <= rep.Linf_exact + 1e-9
            assert rep.Linf_exact <= min(rep.bound_psd, rep.bound_sym) + 1e-9

    def test_large_dimension_omits_exact_norm(self):
        rep = analyze(_two_spikes(30))
        assert rep.Linf_exact is None
        assert rep.ratio_dL2_over_Linf is None
        assert "Linf_exact" not in rep.to_json_dict()

    def test_family_above_the_cap_reports_exact_norm(self):
        # the column check certifies the paper's family at any d, with no walk
        h = rotate_spectrum(np.r_[np.ones(29), 50.0], exp_skew(random_skew(30, np.random.default_rng(30)), 0.5))
        rep = analyze(h)
        assert rep.Linf_exact == pytest.approx(np.abs(h.to_array()).sum(), rel=1e-12)
        assert rep.ratio_dL2_over_Linf == pytest.approx(30 * rep.L2 / rep.Linf_exact, rel=1e-12)

    def test_overflowing_sums_are_rejected_naming_the_value(self):
        h = SymMatrix(np.full((3, 3), 5e307))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^\w+ overflows: matrix entries too large$"):
            analyze(h)

    def test_json_dict_order_and_presence(self):
        fields = list(analyze(H_2x2).to_json_dict())
        assert fields == [
            "L2", "Linf_exact", "rho_diag", "bound_psd", "bound_sym",
            "lower_bound", "lsep_rowsum", "ratio_dL2_over_Linf",
        ]


class TestRotationDegradesAlignment:
    def test_exact_norm_grows_with_rotation(self):
        eigs = np.concatenate([np.ones(7), [50.0]])
        skew = random_skew(8, np.random.default_rng(101))
        vals = [
            linf_bruteforce(rotate_spectrum(eigs, exp_skew(skew, th)))
            for th in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert vals[0] == pytest.approx(57.0)
        assert vals[0] < vals[-1]


def _psd_checks(H):
    """Whether quad_oracle and analyze's concentration bound take H as
    positive semidefinite."""

    def accepts(fn):
        try:
            fn()
        except ValueError:
            return False
        return True

    return [accepts(lambda: quad_oracle(H)), analyze(H).bound_psd is not None]


class TestPsdTestScalesWithTheSpectrum:
    """Every positive semidefinite check accepts lambda_min down to
    -1e-10 max(1, |lambda_max|), and rejects anything below."""

    @pytest.mark.parametrize("lam", [1.0, 1e6, 1e17])
    def test_boundary(self, lam):
        assert _psd_checks(SymMatrix(np.diag([-0.5e-10 * lam, 1.0, 1.0, lam]))) == [True] * 2
        assert _psd_checks(SymMatrix(np.diag([-2e-10 * lam, 1.0, 1.0, lam]))) == [False] * 2

    def test_small_spectra_keep_the_absolute_tolerance(self):
        assert _psd_checks(SymMatrix(np.diag([-0.5e-10, 0.0, 1e-3, 1e-3]))) == [True] * 2
        assert _psd_checks(SymMatrix(np.diag([-2e-10, 0.0, 1e-3, 1e-3]))) == [False] * 2

    @pytest.mark.parametrize("lam", [1e15, 1e16, 1e17, 1e18])
    def test_rotated_huge_spectra_are_psd(self, lam):
        S = random_skew(4, np.random.default_rng(0))
        for theta in (0.3, 0.5, 1.0):
            assert _psd_checks(rotate_spectrum([1.0, 1.0, 1.0, lam], exp_skew(S, theta))) == [True] * 2

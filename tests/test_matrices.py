import math

import numpy as np
import pytest
from conftest import random_sym

from normdescent import (
    MatrixFormatError,
    OrthogonalMatrix,
    SkewMatrix,
    SymMatrix,
    eigh,
    exp_skew,
    make_quadratic,
    parse_matrix_text,
    random_skew,
    rotate_spectrum,
)
from normdescent.matrices import is_psd_spectrum


class TestSymMatrix:
    def test_mirrored_storage_is_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        h = SymMatrix(a + a.T + 1e-17 * rng.standard_normal((5, 5)))
        full = h.to_array()
        assert np.array_equal(full, full.T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, np.nan], [np.nan, 1.0]])

    def test_finite_entries_whose_sum_with_the_transpose_overflows(self):
        a = np.array([[1e308, 1.7e308], [1.6e308, -1.7e308]])
        h = SymMatrix(a).to_array()
        assert np.isfinite(h).all() and np.array_equal(h, h.T)
        assert h[0, 0] == 1e308 and h[1, 1] == -1.7e308
        assert h[0, 1] == 0.5 * a[0, 1] + 0.5 * a[1, 0]

    def test_averaging_keeps_the_bits_of_odd_subnormals(self):
        # halving first would round 5e-324 to 0 before the sum
        a = np.array([[5e-324, 1.5e-323], [5e-324, 1.0]])
        h = SymMatrix(a).to_array()
        assert h[0, 0] == 5e-324 and h[0, 1] == h[1, 0] == 0.5 * (1.5e-323 + 5e-324)

    def test_entry_and_trace(self):
        a = SymMatrix([[2.0, 1.0], [1.0, 3.0]]).to_array()
        assert a[0, 1] == a[1, 0] == 1.0
        assert np.trace(a) == 5.0


class TestEigh:
    def test_diagonal_input(self):
        dec = eigh(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-12)
        # eigenvectors are signed coordinate vectors in permuted order
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_2x2_closed_form(self):
        dec = eigh(SymMatrix([[2.0, 1.0], [1.0, 3.0]]))
        lo = 2.5 - math.sqrt(1.25)
        hi = 2.5 + math.sqrt(1.25)
        assert dec.eigenvalues == pytest.approx([lo, hi], abs=1e-12)

    def test_reconstruction_d6(self):
        h = random_sym(np.random.default_rng(3), 6)
        dec = eigh(h)
        rec = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.abs(rec - h.to_array()).max() <= 1e-10

    def test_residuals_on_random_matrices(self):
        # 100 random symmetric matrices across d = 2..12
        rng = np.random.default_rng(7)
        for i in range(100):
            d = 2 + i % 11
            h = random_sym(rng, d)
            a = h.to_array()
            dec = eigh(h)
            scale = max(1.0, np.abs(a).max())
            rec = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
            assert np.abs(rec - a).max() <= 1e-10 * scale
            assert np.abs(dec.eigenvectors @ dec.eigenvectors.T - np.eye(d)).max() <= 1e-10
            assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_arrays_are_read_only(self):
        dec = eigh(random_sym(np.random.default_rng(4), 4))
        with pytest.raises(ValueError, match="read-only"):
            dec.eigenvalues[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            dec.eigenvectors[0, 0] = 0.0

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        for d in (2, 5, 9):
            h = random_sym(rng, d)
            assert abs(np.trace(h.to_array()) - eigh(h).eigenvalues.sum()) <= 1e-10


class TestIsPsd:
    def test_identity(self):
        assert is_psd_spectrum(eigh(SymMatrix(np.diag([1.0, 1.0, 1.0]))).eigenvalues)

    def test_indefinite(self):
        assert not is_psd_spectrum(eigh(SymMatrix(np.diag([1.0, -1.0]))).eigenvalues)


class TestRandomSkew:
    def test_2d_structure(self):
        s = random_skew(2, np.random.default_rng(5))
        a = s.entries
        assert a[0, 0] == a[1, 1] == 0.0
        assert a[1, 0] == -a[0, 1]
        assert abs(abs(a[0, 1]) - math.pi) <= 1e-10

    def test_deterministic(self):
        a = random_skew(6, np.random.default_rng(42)).entries
        b = random_skew(6, np.random.default_rng(42)).entries
        assert np.array_equal(a, b)

    def test_top_singular_value_is_pi(self):
        s = random_skew(5, np.random.default_rng(1))
        a = s.entries
        assert np.array_equal(a.T, -a)
        assert np.all(np.diag(a) == 0.0)
        # independent check: top singular value from the Gram spectrum
        gram = SymMatrix(a.T @ a)
        top = math.sqrt(eigh(gram).eigenvalues[-1])
        assert abs(top - math.pi) <= 1e-10

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            random_skew(1, np.random.default_rng(0))


class TestMatrixChecks:
    """SkewMatrix and OrthogonalMatrix reject an array they cannot hold."""

    @pytest.mark.parametrize("cls", [SkewMatrix, OrthogonalMatrix])
    @pytest.mark.parametrize("shape", [(2, 3), (4,), (0, 0, 0)])
    def test_non_square_is_rejected(self, cls, shape):
        with pytest.raises(ValueError, match=rf"^expected a square matrix, got shape \({shape[0]},"):
            cls(np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_skew_entries_are_rejected(self, bad):
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            SkewMatrix(np.array([[0.0, bad], [-bad, 0.0]]))

    def test_non_orthogonal_is_rejected(self):
        with pytest.raises(ValueError, match=r"^matrix is not orthogonal: residual 1\.000e-09$"):
            OrthogonalMatrix(np.diag([1.0, 1.0 + 5e-10]))
        assert OrthogonalMatrix(np.diag([1.0, 1.0 + 5e-12])).dim == 2  # within the tolerance


class TestExpSkew:
    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_theta_is_rejected(self, theta):
        with pytest.raises(ValueError, match="^theta must be finite$"):
            exp_skew(random_skew(3, np.random.default_rng(0)), theta)

    def test_theta_zero_is_exact_identity(self):
        s = random_skew(4, np.random.default_rng(2))
        q = exp_skew(s, 0.0).entries
        assert np.array_equal(q, np.eye(4))

    def test_quarter_turn(self):
        s = SkewMatrix(np.array([[0.0, -math.pi / 2], [math.pi / 2, 0.0]]))
        q = exp_skew(s, 1.0).entries
        assert np.abs(q - np.array([[0.0, -1.0], [1.0, 0.0]])).max() <= 1e-10

    def test_one_parameter_group(self):
        rng = np.random.default_rng(8)
        s = random_skew(5, rng)
        for _ in range(20):
            t1, t2 = rng.uniform(-1.0, 1.0, 2)
            lhs = exp_skew(s, t1).entries @ exp_skew(s, t2).entries
            rhs = exp_skew(s, t1 + t2).entries
            assert np.abs(lhs - rhs).max() <= 1e-9

    def test_orthogonality_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for i in range(100):
            d = 2 + i % 7
            s = random_skew(d, rng)
            theta = rng.uniform(-2.0, 2.0)
            q = exp_skew(s, theta).entries  # constructor enforces the residual
            assert np.abs(q.T @ q - np.eye(d)).max() <= 1e-10

    @pytest.mark.parametrize("d", [2, 3, 8, 25, 64])
    def test_matches_scipy_expm(self, d):
        # an independent reference; at odd d, S has a zero eigenvalue
        linalg = pytest.importorskip("scipy.linalg")
        s = random_skew(d, np.random.default_rng(d))
        for theta in (-0.7, 1e-9, 0.5, 1.0, 3.0):
            want = linalg.expm(theta * s.entries)
            assert np.abs(exp_skew(s, theta).entries - want).max() <= 1e-13


class TestRotatedHessian:
    def test_theta_zero_is_exact_diagonal(self):
        s = random_skew(4, np.random.default_rng(3))
        h = rotate_spectrum([1.0, 2.0, 3.0, 4.0], exp_skew(s, 0.0))
        assert np.array_equal(h.to_array(), np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_isotropic_spectrum_is_rotation_invariant(self):
        s = random_skew(5, np.random.default_rng(6))
        h = rotate_spectrum(np.ones(5), exp_skew(s, 0.83))
        assert np.abs(h.to_array() - np.eye(5)).max() <= 1e-10

    def test_spectrum_preserved(self):
        eigs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 50.0])
        s = random_skew(6, np.random.default_rng(14))
        h = rotate_spectrum(eigs, exp_skew(s, 0.7))
        assert np.abs(eigh(h).eigenvalues - eigs).max() <= 1e-9

    def test_rejects_negative_eigs(self):
        s = random_skew(3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            rotate_spectrum([1.0, -1.0, 2.0], exp_skew(s, 0.5))


class TestRotateSpectrum:
    def test_make_quadratic_rotates_the_spike_spectrum(self):
        eigs = [1.0, 1.0, 1.0, 1.0, 1.0, 50.0]
        s = random_skew(6, np.random.default_rng(8))
        for theta in (0.0, 0.4, 1.0):
            h = rotate_spectrum(eigs, exp_skew(s, theta))
            assert np.array_equal(h.to_array(), make_quadratic(6, 50.0, theta, 8).to_array())

    def test_rejects_a_spectrum_of_another_dimension(self):
        q = exp_skew(random_skew(3, np.random.default_rng(0)), 0.5)
        with pytest.raises(ValueError, match="does not match"):
            rotate_spectrum([1.0, 2.0], q)


class TestTextFormat:
    def test_roundtrip(self):
        h = random_sym(np.random.default_rng(4), 5)
        text = "5\n" + "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in h.to_array())
        again = parse_matrix_text(text)
        assert np.array_equal(again.to_array(), h.to_array())

    def test_small_asymmetry_is_averaged(self):
        h = parse_matrix_text("2\n2 1\n1.0000000000005 3\n")
        a = h.to_array()
        assert a[0, 1] == a[1, 0] == pytest.approx(1.00000000000025, rel=1e-15)

    def test_asymmetry_beyond_tolerance_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix_text("2\n2 1\n1.001 3\n")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "x\n1 2\n2 1\n",
            "2\n1 2\n",
            "2\n1 2 3\n2 1 4\n",
            "2\n1 b\n2 1\n",
            "2\n1 inf\ninf 1\n",
            "1\n1\nextra\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(MatrixFormatError):
            parse_matrix_text(text)

import math

import numpy as np
import pytest
from conftest import random_sym

from normdescent import (
    MatrixFormatError,
    SkewMatrix,
    SymMatrix,
    eigh,
    exp_skew,
    format_matrix_text,
    is_psd,
    parse_matrix_text,
    random_skew,
    rotate_spectrum,
    rotated_hessian,
)


class TestSymMatrix:
    def test_mirrored_storage_is_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        h = SymMatrix.from_array(a + a.T + 1e-17 * rng.standard_normal((5, 5)))
        full = h.to_array()
        assert np.array_equal(full, full.T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix.from_array(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymMatrix.from_array([[1.0, np.nan], [np.nan, 1.0]])

    def test_entry_and_trace(self):
        h = SymMatrix.from_array([[2.0, 1.0], [1.0, 3.0]])
        assert h.entry(0, 1) == h.entry(1, 0) == 1.0
        assert h.trace() == 5.0


class TestEigh:
    def test_diagonal_input(self):
        dec = eigh(SymMatrix.diagonal([3.0, 1.0, 2.0]))
        assert np.allclose(dec.values, [1.0, 2.0, 3.0], atol=1e-12)
        # eigenvectors are signed coordinate vectors in permuted order
        assert np.allclose(np.abs(dec.vectors), np.eye(3)[:, [1, 2, 0]], atol=1e-12)

    def test_2x2_closed_form(self):
        dec = eigh(SymMatrix.from_array([[2.0, 1.0], [1.0, 3.0]]))
        lo = 2.5 - math.sqrt(1.25)
        hi = 2.5 + math.sqrt(1.25)
        assert dec.values == pytest.approx([lo, hi], abs=1e-12)

    def test_reconstruction_d6(self):
        h = random_sym(np.random.default_rng(3), 6)
        dec = eigh(h)
        rec = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
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
            rec = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
            assert np.abs(rec - a).max() <= 1e-10 * scale
            assert np.abs(dec.vectors @ dec.vectors.T - np.eye(d)).max() <= 1e-10
            assert np.all(np.diff(dec.values) >= 0)

    def test_trace_identity(self):
        rng = np.random.default_rng(11)
        for d in (2, 5, 9):
            h = random_sym(rng, d)
            assert abs(h.trace() - eigh(h).values.sum()) <= 1e-10


class TestIsPsd:
    def test_identity(self):
        assert is_psd(SymMatrix.diagonal([1.0, 1.0, 1.0]), 0.0)

    def test_indefinite(self):
        assert not is_psd(SymMatrix.diagonal([1.0, -1.0]), 0.0)

    def test_within_tolerance(self):
        assert is_psd(SymMatrix.diagonal([-1e-13, 1.0]), 1e-12)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            is_psd(SymMatrix.diagonal([1.0]), -1.0)


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
        gram = SymMatrix.from_array(a.T @ a)
        top = math.sqrt(eigh(gram).values[-1])
        assert abs(top - math.pi) <= 1e-10

    def test_rejects_d1(self):
        with pytest.raises(ValueError):
            random_skew(1, np.random.default_rng(0))


class TestExpSkew:
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


class TestRotatedHessian:
    def test_theta_zero_is_exact_diagonal(self):
        s = random_skew(4, np.random.default_rng(3))
        h = rotated_hessian([1.0, 2.0, 3.0, 4.0], s, 0.0)
        assert np.array_equal(h.to_array(), np.diag([1.0, 2.0, 3.0, 4.0]))

    def test_isotropic_spectrum_is_rotation_invariant(self):
        s = random_skew(5, np.random.default_rng(6))
        h = rotated_hessian(np.ones(5), s, 0.83)
        assert np.abs(h.to_array() - np.eye(5)).max() <= 1e-10

    def test_spectrum_preserved(self):
        eigs = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 50.0])
        s = random_skew(6, np.random.default_rng(14))
        h = rotated_hessian(eigs, s, 0.7)
        assert np.abs(eigh(h).values - eigs).max() <= 1e-9

    def test_rejects_negative_eigs(self):
        s = random_skew(3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            rotated_hessian([1.0, -1.0, 2.0], s, 0.5)


class TestRotateSpectrum:
    def test_is_rotated_hessian_from_its_rotation(self):
        s = random_skew(6, np.random.default_rng(8))
        eigs = [1.0, 1.0, 2.0, 3.0, 5.0, 50.0]
        for theta in (0.0, 0.4, 1.0):
            h = rotate_spectrum(eigs, exp_skew(s, theta))
            assert np.array_equal(h.to_array(), rotated_hessian(eigs, s, theta).to_array())

    def test_rejects_a_spectrum_of_another_dimension(self):
        q = exp_skew(random_skew(3, np.random.default_rng(0)), 0.5)
        with pytest.raises(ValueError, match="does not match"):
            rotate_spectrum([1.0, 2.0], q)


class TestTextFormat:
    def test_roundtrip(self):
        h = random_sym(np.random.default_rng(4), 5)
        again = parse_matrix_text(format_matrix_text(h))
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

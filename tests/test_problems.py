import math

import numpy as np
import pytest

from normdescent import (
    CoshProblem,
    Max,
    SymMatrix,
    eigh,
    make_quadratic,
    noisy_grad,
    quad_noisy_oracle,
    smoothness_constant,
)
from normdescent.problems import NOISE_BLOCK, cosh_oracle, quad_oracle


def central_diff(f, x, h):
    """Finite-difference gradient oracle, coordinate by coordinate."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def assert_grad_matches_fd(value_fn, grad, x, rel=1e-6):
    h = 1e-5 * (1.0 + np.abs(x).max())
    fd = central_diff(value_fn, x, h)
    scale = max(1.0, np.abs(grad).max())
    assert np.abs(fd - grad).max() <= rel * scale


class TestMakeQuadratic:
    def test_isotropic_is_identity(self):
        p = make_quadratic(4, 1.0, 0.37, seed=2)
        assert np.abs(p.to_array() - np.eye(4)).max() <= 1e-10

    def test_axis_aligned_diagonal(self):
        p = make_quadratic(4, 10.0, 0.0, seed=2)
        assert np.array_equal(p.to_array(), np.diag([1.0, 1.0, 1.0, 10.0]))
        assert smoothness_constant(p, Max()) == pytest.approx(13.0)

    def test_spectrum_preserved_at_full_rotation(self):
        p = make_quadratic(8, 50.0, 1.0, seed=7)
        expected = np.concatenate([np.ones(7), [50.0]])
        assert np.abs(eigh(p).eigenvalues - expected).max() <= 1e-9

    def test_axis_aligned_eigenvectors_have_unit_one_norm(self):
        p = make_quadratic(5, 20.0, 0.0, seed=3)
        vecs = eigh(p).eigenvectors
        assert np.abs(np.abs(vecs).sum(axis=0) - 1.0).max() <= 1e-12

    def test_large_dimension_spectrum_and_eigenvectors(self):
        p = make_quadratic(200, 50.0, 0.5, 1)
        dec = eigh(p)
        expected = np.concatenate([np.ones(199), [50.0]])
        assert np.abs(dec.eigenvalues - expected).max() <= 1e-9
        assert np.abs(dec.eigenvectors.T @ dec.eigenvectors - np.eye(200)).max() <= 1e-10

    def test_mean_absolute_eigenvalue(self):
        d, lam = 6, 30.0
        p = make_quadratic(d, lam, 0.5, seed=1)
        lam_bar = np.abs(eigh(p).eigenvalues).mean()
        assert lam_bar == pytest.approx((d - 1 + lam) / d, rel=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_quadratic(1, 2.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_quadratic(4, 0.5, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_quadratic(4, 2.0, 1.5, seed=0)

    def test_requires_psd(self):
        with pytest.raises(ValueError, match="semidefinite"):
            quad_oracle(SymMatrix(np.diag([1.0, -1.0])))


class TestQuadEval:
    def test_origin(self):
        p = make_quadratic(3, 2.0, 0.3, seed=0)
        f, g = quad_oracle(p)(np.zeros(3))
        assert f == 0.0
        assert np.array_equal(g, np.zeros(3))

    def test_diagonal_example(self):
        p = SymMatrix(np.diag([1.0, 2.0]))
        f, g = quad_oracle(p)([1.0, 1.0])
        assert f == 1.5
        assert np.array_equal(g, [1.0, 2.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        p = make_quadratic(5, 12.0, 0.6, seed=9)
        for _ in range(50):
            x = rng.standard_normal(5) * 2.0
            f, g = quad_oracle(p)(x)
            assert_grad_matches_fd(lambda y: quad_oracle(p)(y)[0], g, x)

    def test_euclidean_pl_inequality(self):
        # f(x) - f* <= ||grad||^2 / (2 lambda_min) on random points
        rng = np.random.default_rng(6)
        p = make_quadratic(6, 9.0, 0.4, seed=4)
        lam_min = eigh(p).eigenvalues[0]
        for _ in range(100):
            x = rng.standard_normal(6) * 3.0
            f, g = quad_oracle(p)(x)
            assert f <= (g @ g) / (2.0 * lam_min) + 1e-9


class TestNoisyGrad:
    def test_sigma_zero_is_exact(self):
        p = make_quadratic(4, 3.0, 0.2, seed=8)
        x = np.array([1.0, -2.0, 0.5, 0.0])
        g = noisy_grad(p, x, 0.0, np.random.default_rng(0))
        assert np.array_equal(g, p.to_array() @ x)

    def test_reproducible_stream(self):
        p = make_quadratic(4, 3.0, 0.2, seed=8)
        x = np.ones(4)
        a = [noisy_grad(p, x, 1.0, s) for s in [np.random.default_rng(7)] for _ in range(3)]
        s2 = np.random.default_rng(7)
        b = [noisy_grad(p, x, 1.0, s2) for _ in range(3)]
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb)

    def test_unbiased_at_clt_scale(self):
        # per-coordinate mean over 1e5 draws within 4 sigma / sqrt(1e5)
        p = SymMatrix(np.diag([1.0, 2.0, 3.0]))
        stream = np.random.default_rng(123)
        n = 100_000
        acc = np.zeros(3)
        for _ in range(n):
            acc += noisy_grad(p, np.zeros(3), 1.0, stream)
        assert np.abs(acc / n).max() <= 0.013

    def test_rejects_negative_sigma(self):
        p = make_quadratic(3, 2.0, 0.1, seed=1)
        with pytest.raises(ValueError):
            noisy_grad(p, np.zeros(3), -0.1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            quad_noisy_oracle(p, -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        p = make_quadratic(3, 2.0, 0.1, seed=1)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            noisy_grad(p, np.ones(3), sigma, np.random.default_rng(0))
        with pytest.raises(ValueError, match="nonnegative and finite"):
            quad_noisy_oracle(p, sigma, np.random.default_rng(0))

    def test_oracle_blocks_match_per_call_draws(self):
        # the oracle draws NOISE_BLOCK rows at a time; call k must still see
        # the k-th single draw, across three block boundaries
        p = make_quadratic(5, 7.0, 0.4, seed=2)
        oracle = quad_noisy_oracle(p, 0.3, np.random.default_rng(11))
        stream = np.random.default_rng(11)
        xs = np.random.default_rng(12).standard_normal((3 * NOISE_BLOCK + 1, 5))
        for x in xs:
            f, g = oracle(x)
            assert f == quad_oracle(p)(x)[0]
            assert np.array_equal(g, noisy_grad(p, x, 0.3, stream))


@pytest.mark.parametrize("d", [2, 8, 64, 200])
def test_quadratic_oracles_round_like_matmul(d):
    # the oracles use h.dot(x) and x.dot(g); their bits are those of h @ x and x @ g
    p = make_quadratic(d, 30.0, 0.6, seed=d)
    h = p.to_array()
    exact = quad_oracle(p)
    noisy = quad_noisy_oracle(p, 0.7, np.random.default_rng(3))
    stream = np.random.default_rng(3)
    for x in np.random.default_rng(4).standard_normal((20, d)) * np.logspace(-3, 3, 20)[:, None]:
        g = h @ x
        f = 0.5 * float(x @ g)
        fo, go = exact(x)
        assert fo == f and go.tobytes() == g.tobytes()
        fo, go = noisy(x)
        assert fo == f and go.tobytes() == (g + 0.7 * stream.standard_normal(d)).tobytes()


def test_cosh_oracle_matches_its_formula():
    p = CoshProblem(6)
    oracle = cosh_oracle(p)
    for x in np.random.default_rng(8).uniform(-700.0, 700.0, (50, 6)) * np.logspace(-9, 0, 50)[:, None]:
        half = np.sinh(0.5 * x)
        f, g = 2.0 * float(np.dot(half, half)), np.sinh(x)
        fo, go = oracle(x)
        assert fo == f and go.tobytes() == g.tobytes()
    with pytest.raises(ValueError, match="expected dimension 6"):
        oracle(np.zeros(5))


class TestCosh:
    def test_origin(self):
        p = CoshProblem(4)
        f, g = cosh_oracle(p)(np.zeros(4))
        assert f == 0.0
        assert np.array_equal(g, np.zeros(4))

    def test_standard_values(self):
        p = CoshProblem(2)
        f, g = cosh_oracle(p)([1.0, 0.0])
        assert f == pytest.approx(math.cosh(1.0) - 1.0, rel=1e-12)
        assert g == pytest.approx([math.sinh(1.0), 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        p = CoshProblem(5)
        for _ in range(50):
            x = rng.uniform(-3.0, 3.0, 5)
            f, g = cosh_oracle(p)(x)
            assert_grad_matches_fd(lambda y: cosh_oracle(p)(y)[0], g, x)

    def test_relaxed_curvature_inequality(self):
        # Hessian norm sum cosh(x_i) <= d + ||grad||_1, i.e. constants (d, 1)
        rng = np.random.default_rng(10)
        p = CoshProblem(4)
        for _ in range(200):
            x = rng.uniform(-5.0, 5.0, 4)
            _, g = cosh_oracle(p)(x)
            hess_norm = np.cosh(x).sum()
            assert hess_norm <= p.dim + np.abs(g).sum() + 1e-9

    def test_overflow_guard(self):
        p = CoshProblem(2)
        with pytest.raises(ValueError, match="guard"):
            cosh_oracle(p)([800.0, 0.0])

    def test_value_well_conditioned_near_zero(self):
        p = CoshProblem(1)
        f, _ = cosh_oracle(p)([1e-8])
        assert f == pytest.approx(0.5e-16, rel=1e-9)


@pytest.mark.parametrize("d", [8, 64, 256])
def test_largest_lambda_max_keeps_the_unit_eigenvalues(d):
    # the rotation rounds at the scale eps * lambda_max; at 1e8 the matrix is still in the family
    for theta in (0.3, 0.5, 1.0):
        for seed in range(3):
            H = make_quadratic(d, 1e8, theta, seed)
            values = eigh(H).eigenvalues
            assert np.abs(values[:-1] - 1.0).max() <= 1e-7
            assert values[-1] == pytest.approx(1e8, rel=1e-12)
            quad_oracle(H)  # passes the positive semidefinite test


def test_lambda_max_just_above_the_bound_is_rejected():
    above = float(np.nextafter(1e8, np.inf))
    with pytest.raises(ValueError, match=rf"^lambda_max must lie in \[1, 1e8\], got {above}$"):
        make_quadratic(4, above, 0.5, seed=0)


@pytest.mark.parametrize("factory", [
    quad_oracle,
    lambda H: quad_noisy_oracle(H, 0.5, np.random.default_rng(0)),
], ids=["exact", "noisy"])
def test_oracles_reject_an_indefinite_matrix(factory):
    with pytest.raises(ValueError, match="^quadratic problems require a positive semidefinite matrix$"):
        factory(SymMatrix(np.diag([1.0, -1.0])))


def test_rejects_an_indefinite_matrix_at_any_scale():
    for lam in (1.0, 1e6, 1e17):
        with pytest.raises(ValueError, match="semidefinite"):
            quad_oracle(SymMatrix(np.diag([-1e-6 * lam, 1.0, lam])))

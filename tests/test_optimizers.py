import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from conftest import random_psd
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from normdescent import (
    AdamConfig,
    BlockMax,
    BlockPartition,
    CoshProblem,
    DivergenceError,
    Euclidean,
    Max,
    One,
    SymMatrix,
    WeightedDiag,
    adam_gamma,
    cosh_oracle,
    dual_norm,
    eigh,
    lsep_rowsum,
    make_quadratic,
    quad_noisy_oracle,
    quad_oracle,
    run_adam_family,
    run_normalized_sd,
    run_relaxed_nsd,
    run_signsgd,
    run_steepest_descent,
    sign_unit,
    smoothness_constant,
    steepest_descent_stack,
    steepest_op,
    verify_rate_bounds,
)
from normdescent.norms import _row_dots, dual_norm_rows
from normdescent.optimizers import F_BLOWUP, ROW_CHUNK, STATIONARY_TOL, Trace
from normdescent.problems import OverflowGuardError

ALL_KINDS_D6 = [
    Euclidean(),
    Max(),
    One(),
    WeightedDiag((0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
    BlockMax(BlockPartition(((0, 1, 2), (3, 4, 5)))),
]


def identity_problem(d):
    return SymMatrix(np.diag(np.ones(d)))


class TestSteepestDescent:
    def test_one_step_exact_euclidean(self):
        p = identity_problem(3)
        tr = run_steepest_descent(quad_oracle(p), Euclidean(), 1.0, [2.0, -1.0, 0.5], 2)
        assert tr.f[1] == 0.0
        assert tr.dist_sq[1] == 0.0
        assert np.array_equal(tr.x_final, np.zeros(3))

    def test_one_step_exact_max_on_symmetric_start(self):
        p = identity_problem(2)
        tr = run_steepest_descent(quad_oracle(p), Max(), 2.0, [1.0, 1.0], 1)
        # grad (1,1), direction (2,2)/2 lands on the optimum
        assert np.array_equal(tr.x_final, np.zeros(2))
        assert tr.f[1] == 0.0

    def test_descent_inequality_every_kind(self):
        rng = np.random.default_rng(40)
        for seed in range(5):
            p = make_quadratic(6, float(rng.uniform(2, 12)), float(rng.uniform(0, 1)), seed=seed)
            x0 = rng.standard_normal(6)
            for kind in ALL_KINDS_D6:
                L = smoothness_constant(p, kind)
                tr = run_steepest_descent(quad_oracle(p), kind, L, x0, 100)
                lhs = tr.f[1:]
                rhs = tr.f[:-1] - tr.dual_grad_norm[:-1] ** 2 / (2.0 * L)
                assert (lhs <= rhs + 1e-10).all()

    def test_sign_step_quadratic_bound(self):
        # f(x + a*s) <= f(x) + a <g, s> + a^2 L_inf / 2 for sign vectors s
        rng = np.random.default_rng(41)
        p = make_quadratic(5, 7.0, 0.5, seed=2)
        linf = smoothness_constant(p, Max())
        for _ in range(200):
            x = rng.standard_normal(5) * 2.0
            s = 1.0 - 2.0 * rng.integers(0, 2, 5)
            a = rng.uniform(0.01, 2.0)
            f0, g = quad_oracle(p)(x)
            f1, _ = quad_oracle(p)(x + a * s)
            assert f1 <= f0 + a * float(g @ s) + a * a * linf / 2.0 + 1e-10

    def test_scale_covariance(self):
        c = 3.7
        p = make_quadratic(5, 6.0, 0.4, seed=3)
        x0 = np.random.default_rng(1).standard_normal(5)

        def scaled_oracle(x):
            f, g = quad_oracle(p)(x)
            return c * f, c * g

        for kind in (Euclidean(), Max(), One()):
            L = smoothness_constant(p, kind)
            tr = run_steepest_descent(quad_oracle(p), kind, L, x0, 50)
            trc = run_steepest_descent(scaled_oracle, kind, c * L, x0, 50)
            assert np.abs(tr.x_final - trc.x_final).max() <= 1e-12
            assert np.abs(tr.f * c - trc.f).max() <= 1e-10

    def test_coordinate_descent_touches_one_coordinate(self):
        p = make_quadratic(5, 8.0, 0.7, seed=4)
        x = np.random.default_rng(2).standard_normal(5)
        L = smoothness_constant(p, One())
        for _ in range(30):
            tr = run_steepest_descent(quad_oracle(p), One(), L, x, 1)
            changed = np.sum(tr.x_final != x)
            assert changed == 1
            x = tr.x_final

    def test_blockmax_update_structure(self):
        part = BlockPartition(((0, 1, 2), (3, 4, 5)))
        kind = BlockMax(part)
        p = make_quadratic(6, 5.0, 0.5, seed=5)
        L = smoothness_constant(p, kind)
        x = np.random.default_rng(3).standard_normal(6)
        _, g = quad_oracle(p)(x)
        tr = run_steepest_descent(quad_oracle(p), kind, L, x, 1)
        delta = x - tr.x_final
        dual = sum(math.sqrt(g[list(b)] @ g[list(b)]) for b in part.blocks)
        for b in part.blocks:
            idx = list(b)
            # parallel to the block gradient, block magnitude = dual / L
            cos = (delta[idx] @ g[idx]) / (
                math.sqrt(delta[idx] @ delta[idx]) * math.sqrt(g[idx] @ g[idx])
            )
            assert cos == pytest.approx(1.0, abs=1e-12)
            assert math.sqrt(delta[idx] @ delta[idx]) == pytest.approx(dual / L, rel=1e-12)

    def test_separable_surrogate_gives_unit_smoothness(self):
        # with weights l_i = sum_j |H_ij| the problem is 1-smooth in that geometry
        rng = np.random.default_rng(44)
        h = random_psd(rng, 6)
        l, _ = lsep_rowsum(h)
        kind = WeightedDiag(tuple(l))
        assert smoothness_constant(h, kind) <= 1.0 + 1e-10
        x0 = rng.standard_normal(6)
        tr = run_steepest_descent(quad_oracle(h), kind, 1.0, x0, 100)
        assert (tr.f[1:] <= tr.f[:-1] - tr.dual_grad_norm[:-1] ** 2 / 2.0 + 1e-10).all()

    def test_invalid_smoothness_rejected(self):
        p = identity_problem(2)
        with pytest.raises(ValueError):
            run_steepest_descent(quad_oracle(p), Euclidean(), 0.0, [1.0, 1.0], 1)


def _identity_oracle(x):
    return 0.5 * float(x @ x), x.copy()


@pytest.mark.parametrize("runner, bad", [
    ("sd", math.inf), ("sd", math.nan), ("nsd", math.inf), ("stack", math.inf),
    ("relaxed_L0", math.inf), ("relaxed_L1", math.nan), ("relaxed_L1", math.inf),
])
def test_runner_constants_must_be_finite(runner, bad):
    # an infinite constant gave a run that never moves, and a NaN L1 a divergence at step 1
    x0 = np.ones(3)
    run, message = {
        "sd": (lambda: run_steepest_descent(_identity_oracle, Max(), bad, x0, 3), "smoothness constant"),
        "nsd": (lambda: run_normalized_sd(_identity_oracle, Euclidean(), bad, x0, 3), "smoothness constant"),
        "stack": (
            lambda: steepest_descent_stack(lambda X: (X[..., 0], X), Max(), [1.0, bad], np.ones((2, 1, 3)), 3),
            "smoothness constant",
        ),
        "relaxed_L0": (lambda: run_relaxed_nsd(_identity_oracle, Max(), bad, 1.0, x0, 3, 1e-6), "L0"),
        "relaxed_L1": (lambda: run_relaxed_nsd(_identity_oracle, Max(), 1.0, bad, x0, 3, 1e-6), "L1"),
    }[runner]
    finite = "nonnegative and finite" if runner == "relaxed_L1" else "positive and finite"
    with pytest.raises(ValueError, match=f"{message} must be {finite}"):
        run()


class TestNormalizedSD:
    def test_immediate_stop_at_optimum(self):
        p = identity_problem(3)
        tr = run_normalized_sd(quad_oracle(p), Max(), 1.0, np.zeros(3), 50)
        assert len(tr) == 1

    def test_first_step_magnitude_is_exact(self):
        p = make_quadratic(4, 6.0, 0.3, seed=6)
        x0 = np.array([3.0, -2.0, 5.0, -7.0])  # dyadic-friendly start
        L = 2.0
        tr = run_normalized_sd(quad_oracle(p), Max(), L, x0, 1)
        delta = np.abs(tr.x_final - x0)
        assert np.all(delta == 1.0 / L)

    def test_rate_bound(self):
        rng = np.random.default_rng(50)
        p = make_quadratic(6, 9.0, 0.6, seed=7)
        for kind in ALL_KINDS_D6:
            L = smoothness_constant(p, kind)
            x0 = rng.standard_normal(6)
            tr = run_normalized_sd(quad_oracle(p), kind, L, x0, 1000)
            T = len(tr) - 1
            lhs = tr.dual_grad_norm[:-1].mean()
            rhs = L * tr.f[0] / math.sqrt(T) + math.log(T + 1.0) / (2.0 * math.sqrt(T))
            assert lhs <= rhs * (1.0 + 1e-9)


class TestRelaxedNSD:
    def test_zero_growth_term_reduces_to_steepest_descent(self):
        p = make_quadratic(5, 4.0, 0.2, seed=8)
        x0 = np.random.default_rng(5).standard_normal(5)
        L0 = 1.3
        tr_soft = run_relaxed_nsd(quad_oracle(p), Max(), L0, 0.0, x0, 80, 1e-300)
        tr_sd = run_steepest_descent(quad_oracle(p), Max(), 5.0 * L0, x0, 80)
        assert np.abs(tr_soft.x_final - tr_sd.x_final).max() <= 1e-12
        assert np.abs(tr_soft.f - tr_sd.f).max() <= 1e-12

    def test_cosh_hits_stationarity_within_bound(self):
        p = CoshProblem(4)
        for eps in (1e-1, 1e-2):
            tr = run_relaxed_nsd(cosh_oracle(p), Max(), 4.0, 1.0, [3.0] * 4, 200_000, eps)
            assert tr.dual_grad_norm[-1] <= eps  # the run stopped at its hit
            bound = 18.0 * tr.f[0] * max(4.0 / eps**2, 1.0 / 4.0)
            assert len(tr) - 1 <= bound

    def test_per_step_descent(self):
        p = CoshProblem(4)
        L0, L1 = 4.0, 1.0
        tr = run_relaxed_nsd(cosh_oracle(p), Max(), L0, L1, [2.5, -1.0, 3.0, 0.5], 500, 1e-6)
        dual = tr.dual_grad_norm[:-1]
        rhs = tr.f[:-1] - dual**2 / (2.0 * (5.0 * L0 + 4.0 * L1 * dual))
        assert (tr.f[1:] <= rhs + 1e-10).all()

    def test_gradient_growth_along_trajectory(self):
        # steps are shorter than 1/L1, so the local growth bound applies
        p = CoshProblem(4)
        L0, L1 = 4.0, 1.0
        tr = run_relaxed_nsd(cosh_oracle(p), Max(), L0, L1, [3.0] * 4, 500, 1e-4)
        dual = tr.dual_grad_norm
        assert (dual[1:] <= 4.0 * (L0 / L1 + dual[:-1]) + 1e-10).all()


class TestSignSGD:
    def test_updates_have_constant_magnitude(self):
        p = SymMatrix(np.diag([1.0, 2.0]))
        x = np.array([10.0, 10.0])
        for _ in range(20):
            tr = run_signsgd(quad_oracle(p), 0.5, x, 1)
            assert np.all(np.abs(tr.x_final - x) == 0.5)
            x = tr.x_final

    def test_matches_normalized_max_descent(self):
        p = make_quadratic(6, 10.0, 0.5, seed=9)
        x0 = np.random.default_rng(6).standard_normal(6)
        tr_sign = run_signsgd(quad_oracle(p), None, x0, 300)
        tr_nsd = run_normalized_sd(quad_oracle(p), Max(), 1.0, x0, 300)
        assert len(tr_sign) == len(tr_nsd)
        assert np.abs(tr_sign.x_final - tr_nsd.x_final).max() <= 1e-12
        assert np.abs(tr_sign.f - tr_nsd.f).max() <= 1e-12

    def test_stochastic_median_progress(self):
        # frozen regression baseline: median final value under a tenth of f0
        p = make_quadratic(6, 10.0, 0.5, seed=1)
        ratios = []
        for s in range(32):
            x0 = np.random.default_rng([100, s]).standard_normal(6)
            stream = np.random.default_rng([200, s])
            tr = run_signsgd(quad_noisy_oracle(p, 0.5, stream), None, x0, 2000)
            ratios.append(tr.f[-1] / tr.f[0])
        assert np.median(ratios) < 0.1


class TestDivergenceDetection:
    @pytest.mark.parametrize("x0", [[0.0, math.nan], [math.inf, 1.0], [[1.0, 1.0]]])
    def test_initial_point_must_be_a_finite_vector(self, x0):
        with pytest.raises(ValueError, match="^initial point must be a finite vector$"):
            run_steepest_descent(quad_oracle(identity_problem(2)), Euclidean(), 1.0, x0, 3)

    def test_blowup_aborts_with_partial_trace(self):
        # f_0 <= 1, so the limit is F_BLOWUP itself; lambda_max = 1e11 lies
        # beyond the family's rule, so the diagonal matrix is built directly
        p = SymMatrix(np.diag([1.0, 1.0, 1.0, 1e11]))
        x0 = 1e-6 * np.random.default_rng(2).standard_normal(4)
        with pytest.raises(DivergenceError) as err:
            run_signsgd(quad_oracle(p), 10.0, x0, 50)
        trace = err.value.trace
        assert len(trace) == err.value.step + 1
        assert trace.f[-1] > 1e12
        assert np.isfinite(trace.f).all()

    def test_non_finite_oracle_aborts(self):
        calls = {"n": 0}

        def oracle(x):
            calls["n"] += 1
            if calls["n"] > 3:
                return math.nan, np.zeros(2)
            return 1.0, np.ones(2)

        with pytest.raises(DivergenceError) as err:
            run_steepest_descent(oracle, Euclidean(), 1.0, [0.0, 0.0], 10)
        assert err.value.step == 3
        assert len(err.value.trace) == 3  # only the finite rows


class TestSteepestDescentBatch:
    def test_aborts_on_any_row(self):
        def oracle(X):
            F = 0.5 * (X * X).sum(axis=2)
            F[0, 1] = math.nan if F[0, 0] < 1.0 else F[0, 1]
            return F, X

        _, failures = steepest_descent_stack(oracle, Euclidean(), [2.0], [[[4.0, 0.0], [0.0, 1.0]]], 10)
        assert failures == [(2, "non-finite objective or gradient")]  # row 0: f = 8, 2, 0.5

    def test_blowup_aborts(self):
        def oracle(X):
            return 0.5 * (X * X).sum(axis=2), -X

        _, (failure,) = steepest_descent_stack(oracle, Max(), [0.5], [[[1.0, 1.0], [0.0, 0.0]]], 100)
        assert failure[0] > 0 and "exceeded" in failure[1]

    def test_other_geometries_rejected(self):
        with pytest.raises(TypeError):
            steepest_descent_stack(lambda X: (X[..., 0], X), One(), [1.0], [[[1.0, 2.0]]], 3)


def stack_quadratics(K, R, d, seed):
    """K random PSD Hessians, K x R starting points, and the oracle of
    x'Hx/2 on the stack and on a stack of slice k alone."""
    rng = np.random.default_rng(seed)
    H = np.stack([random_psd(rng, d).to_array() + np.eye(d) for _ in range(K)])
    X0 = rng.standard_normal((K, R, d))

    def slice_oracle(k):
        def oracle(X):
            G = X[0] @ H[k]
            return 0.5 * np.einsum("ij,ij->i", X[0], G)[None], G[None]
        return oracle

    def oracle(X):
        G = X @ H
        return 0.5 * np.einsum("kij,kij->ki", X, G), G

    return H, X0, oracle, slice_oracle


class TestSteepestDescentStack:
    @pytest.mark.parametrize("kind", [Euclidean(), Max()])
    def test_slices_match_one_batch_each(self, kind):
        H, X0, oracle, slice_oracle = stack_quadratics(5, 7, 4, seed=3)
        L = [float(np.abs(h).sum()) for h in H]  # stable for both geometries
        X, failures = steepest_descent_stack(oracle, kind, L, X0, 40)
        assert failures == [None] * 5
        for k in range(5):
            want, _ = steepest_descent_stack(slice_oracle(k), kind, [L[k]], X0[k:k + 1], 40)
            assert X[k].tobytes() == want[0].tobytes()

    def test_failing_slices_are_recorded_and_leave_the_live_slices_unchanged(self):
        H, X0, oracle, slice_oracle = stack_quadratics(4, 3, 3, seed=8)
        L2 = [float(np.linalg.eigvalsh(h)[-1]) for h in H]
        L = [L2[0], L2[1] / 3.0, L2[2], L2[3] / 2.5]  # slices 1 and 3 blow up
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # failed slices overflow silently
            X, failures = steepest_descent_stack(oracle, Euclidean(), L, X0, 200)
        for k in range(4):
            want, (failure,) = steepest_descent_stack(slice_oracle(k), Euclidean(), [L[k]], X0[k:k + 1], 200)
            assert failures[k] == failure
            if k in (0, 2):
                assert failures[k] is None
                assert X[k].tobytes() == want[0].tobytes()
                continue
            assert "exceeded" in failures[k][1]
        assert failures[1][0] != failures[3][0]

    @pytest.mark.parametrize("kind", [Euclidean(), Max()], ids=lambda k: type(k).__name__)
    def test_a_slice_overflowing_within_a_step_raises_no_warning(self, kind):
        # 1/1e-310 overflows, so slice 1's first step is infinite and its next values are not finite
        def oracle(X):
            return 0.5 * np.einsum("kij,kij->ki", X, X), X

        X0 = np.stack([np.eye(3), np.eye(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            X, failures = steepest_descent_stack(oracle, kind, [1.0, 1e-310], X0, 5)
            want, _ = steepest_descent_stack(oracle, kind, [1.0], X0[:1], 5)
        assert failures == [None, (1, "non-finite objective or gradient")]
        assert X[0].tobytes() == want[0].tobytes()

    def test_non_finite_slice_reason_comes_first(self):
        calls = []

        def oracle(X):
            F = 0.5 * np.einsum("kij,kij->ki", X, X)
            G = X.copy()
            if len(calls) == 1:
                F[1, 0] = F[1, 0] * 1e13  # slice 1 also exceeds its limit, F_BLOWUP * 1.5
                G[1, 1, 0] = math.nan
            calls.append(X)
            return F, G

        X, failures = steepest_descent_stack(oracle, Max(), [4.0, 4.0], np.ones((2, 2, 3)), 5)
        assert failures == [None, (1, "non-finite objective or gradient")]
        assert X[0].all()

    def test_a_slice_non_finite_at_its_start_fails_at_step_0(self):
        # slice 1's finite Hessian and start give gradients of 2e308, which overflow
        H = np.stack([np.eye(2), 1e308 * np.eye(2)])

        def oracle_of(h):
            def oracle(X):
                G = X @ h
                return 0.5 * np.einsum("kij,kij->ki", X, G), G
            return oracle

        X0 = np.full((2, 3, 2), 2.0)
        X, failures = steepest_descent_stack(oracle_of(H), Euclidean(), [1.0, 1.0], X0, 5)
        assert failures == [None, (0, "non-finite objective or gradient")]
        want, _ = steepest_descent_stack(oracle_of(H[:1]), Euclidean(), [1.0], X0[:1], 5)
        assert X[0].tobytes() == want[0].tobytes()

    def test_blow_up_reason_names_the_largest_value_over_its_limit(self):
        # each row's limit is F_BLOWUP * max(1, f_0): 1e12 for the rows starting at
        # or below 1, 1e13 for the one starting at 10
        starts = np.array([[1.0, 0.5], [0.5, 10.0]])
        calls = []

        def oracle(X):
            calls.append(X)
            return (np.array([[3e12, 5e12], [3e12, 5e12]]) if len(calls) > 1 else starts), X

        _, failures = steepest_descent_stack(oracle, Euclidean(), [2.0, 2.0], np.ones((2, 2, 1)), 3)
        assert failures == [(1, "objective 5.000e+12 exceeded 1e+12"), (1, "objective 3.000e+12 exceeded 1e+12")]

    def test_a_row_starting_above_one_blows_up_relative_to_its_start(self):
        calls = []

        def oracle(X):
            calls.append(X)
            scale = [1.0, 1e12, 1.001e12, 1e13][min(len(calls), 4) - 1]
            return np.array([[4.0, 0.5]]) * scale, X

        _, (failure,) = steepest_descent_stack(oracle, Euclidean(), [2.0], np.ones((1, 2, 1)), 5)
        assert failure == (2, "objective 4.004e+12 exceeded 4e+12")

    @pytest.mark.parametrize("kind", [Euclidean(), Max()], ids=lambda k: type(k).__name__)
    def test_a_step_is_the_single_vector_step_on_every_row(self, kind):
        # the same gradients, over many scales and with signed zeros, step every row as run_steepest_descent steps
        rng = np.random.default_rng(62)
        X0 = rng.standard_normal((3, 5, 8))
        G = rng.standard_normal((3, 5, 8)) * 10.0 ** rng.integers(-150, 151, size=(3, 5, 1))
        G[0, 0, 2], G[1, 3, 5], G[2, 4] = 0.0, -0.0, 0.0
        L = [0.7, 3.0, 1e3]
        X1, failures = steepest_descent_stack(lambda X: (np.zeros((3, 5)), G), kind, L, X0, 1)
        assert failures == [None] * 3
        for k, r in np.ndindex(3, 5):
            tr = run_steepest_descent(lambda x: (0.0, G[k, r]), kind, L[k], X0[k, r], 1)
            assert X1[k, r].tobytes() == tr.x_final.tobytes()

    def test_rejects_bad_input(self):
        oracle = lambda X: (X[..., 0], X)
        with pytest.raises(TypeError):
            steepest_descent_stack(oracle, One(), [1.0], np.ones((1, 1, 2)), 3)
        with pytest.raises(ValueError):
            steepest_descent_stack(oracle, Max(), [1.0, 0.0], np.ones((2, 1, 2)), 3)
        with pytest.raises(ValueError):
            steepest_descent_stack(oracle, Max(), [1.0], np.ones((2, 1, 2)), 3)
        with pytest.raises(ValueError):
            steepest_descent_stack(oracle, Max(), [1.0], np.ones((1, 2)), 3)


class TestAdamGamma:
    def test_examples(self):
        assert adam_gamma([1.0], [1.0], 0.0) == pytest.approx([1.0])
        # variance form (1 + (v - m^2)/m^2)^(-1/2) agrees when v >= m^2
        assert adam_gamma([1.0], [4.0], 0.0) == pytest.approx([(1.0 + (4.0 - 1.0) / 1.0) ** -0.5])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            adam_gamma([1.0], [0.0], 0.0)
        with pytest.raises(ValueError):
            adam_gamma([1.0], [-1.0], 1e-8)
        with pytest.raises(ValueError):
            adam_gamma([1.0], [1.0], -1e-8)

    @settings(deadline=None)
    @given(
        arrays(np.float64, 16, elements=st.floats(-1e6, 1e6)),
        arrays(np.float64, 16, elements=st.floats(1e-12, 1e12)),
    )
    def test_reconstruction_identity(self, m, v):
        gamma = adam_gamma(m, v, 1e-8)
        lhs = gamma * sign_unit(m)
        rhs = m / (np.sqrt(v) + 1e-8)
        assert np.abs(lhs - rhs).max() <= 1e-15 * max(1.0, np.abs(rhs).max())


class RecordingOracle:
    """Wraps a deterministic oracle and records every queried iterate."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.xs = []

    def __call__(self, x):
        self.xs.append(np.array(x))
        return self.oracle(x)


def replay_moments(xs, oracle, beta1, beta2):
    """Recompute the m, v recursions from the recorded iterates."""
    d = xs[0].size
    m = np.zeros(d)
    v = np.zeros(d)
    out = []
    for x in xs[:-1]:
        _, g = oracle(x)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        out.append((m.copy(), v.copy()))
    return out


class TestAdamFamily:
    PART = BlockPartition(((0, 1, 2), (3, 4)))

    def _problem(self):
        return make_quadratic(5, 6.0, 0.4, seed=11)

    def test_standard_single_step_formula(self):
        p = self._problem()
        x0 = np.random.default_rng(7).standard_normal(5)
        cfg = AdamConfig(step=0.1)
        tr = run_adam_family(quad_oracle(p), cfg, x0, 1, np.random.default_rng(0))
        _, g = quad_oracle(p)(x0)
        m1 = (1.0 - cfg.beta1) * g
        v1 = (1.0 - cfg.beta2) * g * g
        expected = x0 - cfg.step * m1 / (np.sqrt(v1) + cfg.epsilon)
        assert np.abs(tr.x_final - expected).max() <= 1e-15

    def test_shuffled_d1_equals_standard(self):
        p = SymMatrix(np.diag([2.0]))
        x0 = np.array([1.5])
        a = run_adam_family(quad_oracle(p), AdamConfig(step=0.05), x0, 100, np.random.default_rng(1))
        b = run_adam_family(
            quad_oracle(p),
            AdamConfig(step=0.05, variant="shuffled"),
            x0,
            100,
            np.random.default_rng(1),
        )
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.x_final, b.x_final)

    def test_shuffled_preserves_magnitude_multiset_per_block(self):
        p = self._problem()
        cfg = AdamConfig(step=0.05, variant="shuffled", blocks=self.PART)
        rec = RecordingOracle(quad_oracle(p))
        x0 = np.random.default_rng(8).standard_normal(5)
        run_adam_family(rec, cfg, x0, 50, np.random.default_rng(2))
        moments = replay_moments(rec.xs, quad_oracle(p), cfg.beta1, cfg.beta2)
        for t, (m, v) in enumerate(moments):
            gamma = adam_gamma(m, v, cfg.epsilon)
            # reconstructing |delta x| / step reintroduces subtraction rounding
            # of order ulp(x)/step, hence the 1e-12 comparison
            applied = np.abs(rec.xs[t + 1] - rec.xs[t]) / cfg.step
            for b in self.PART.blocks:
                idx = list(b)
                assert np.allclose(
                    np.sort(applied[idx]), np.sort(gamma[idx]), rtol=1e-12, atol=1e-12
                )

    def test_averaged_applies_block_mean(self):
        p = self._problem()
        cfg = AdamConfig(step=0.05, variant="averaged", blocks=self.PART)
        rec = RecordingOracle(quad_oracle(p))
        x0 = np.random.default_rng(9).standard_normal(5)
        run_adam_family(rec, cfg, x0, 50, np.random.default_rng(3))
        moments = replay_moments(rec.xs, quad_oracle(p), cfg.beta1, cfg.beta2)
        for t, (m, v) in enumerate(moments):
            gamma = adam_gamma(m, v, cfg.epsilon)
            applied = np.abs(rec.xs[t + 1] - rec.xs[t]) / cfg.step
            for b in self.PART.blocks:
                idx = list(b)
                mean = gamma[idx].mean()
                assert np.abs(applied[idx] - mean).max() <= 1e-12 * max(1.0, mean)

    def test_momentum_sign_has_unit_magnitudes(self):
        p = self._problem()
        cfg = AdamConfig(step=0.125, variant="momentum_sign")
        x0 = np.array([4.0, -2.0, 1.0, -8.0, 16.0])
        tr = run_adam_family(quad_oracle(p), cfg, x0, 1, np.random.default_rng(4))
        assert np.all(np.abs(tr.x_final - x0) == 0.125)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdamConfig(step=0.1, beta1=1.0)
        with pytest.raises(ValueError):
            AdamConfig(step=-0.1)
        with pytest.raises(ValueError):
            AdamConfig(step=0.1, variant="nesterov")


class TestRateBounds:
    def test_one_step_exact_has_large_slack(self):
        p = identity_problem(3)
        x0 = np.array([2.0, -1.0, 0.5])
        f0, _ = quad_oracle(p)(x0)
        tr = run_steepest_descent(quad_oracle(p), Euclidean(), 1.0, x0, 20)
        rc = verify_rate_bounds(tr, 1.0, 0.0, mu=1.0, radius=math.sqrt(2 * f0))
        assert rc.passed
        # the stationarity bound is tight at the first step here (slack 0);
        # the convex-rate bound is strictly loose
        assert rc.smooth_slack >= 0.0
        assert rc.kelner_slack > 0.1

    def test_random_quadratics_euclidean_and_max(self):
        rng = np.random.default_rng(60)
        for seed in range(5):
            p = make_quadratic(6, float(rng.uniform(3, 30)), float(rng.uniform(0, 1)), seed=seed)
            lam_min = eigh(p).eigenvalues[0]
            x0 = rng.standard_normal(6)
            f0, _ = quad_oracle(p)(x0)
            radius = math.sqrt(2.0 * f0 / lam_min)
            for kind in (Euclidean(), Max()):
                L = smoothness_constant(p, kind)
                tr = run_steepest_descent(quad_oracle(p), kind, L, x0, 500)
                rc = verify_rate_bounds(tr, L, 0.0, mu=lam_min, radius=radius)
                assert rc.passed, (kind, rc)

    def test_mu_above_L_rejected(self):
        p = identity_problem(2)
        tr = run_steepest_descent(quad_oracle(p), Euclidean(), 1.0, [1.0, 1.0], 5)
        with pytest.raises(ValueError):
            verify_rate_bounds(tr, 1.0, 0.0, mu=2.0)

    def test_bad_arguments_are_rejected_naming_the_rule(self):
        tr = run_steepest_descent(quad_oracle(identity_problem(2)), Euclidean(), 1.0, [1.0, 1.0], 5)
        one_row = Trace(tr.f[:1], tr.dual_grad_norm[:1], tr.dist_sq[:1], tr.x_final)
        for call, message in [
            (lambda: verify_rate_bounds(tr, 0.0, 0.0), "smoothness constant must be positive"),
            (lambda: verify_rate_bounds(one_row, 1.0, 0.0), "trace must contain at least one step"),
            (lambda: verify_rate_bounds(tr, 1.0, 0.0, radius=-1.0), "radius must be nonnegative"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()

    def test_violation_reported_not_raised(self):
        p = make_quadratic(4, 10.0, 0.5, seed=12)
        x0 = np.random.default_rng(10).standard_normal(4)
        L2 = smoothness_constant(p, Euclidean())
        tr = run_steepest_descent(quad_oracle(p), Euclidean(), L2, x0, 50)
        rc = verify_rate_bounds(tr, L2 / 100.0, 0.0)  # deliberately wrong L
        assert not rc.passed
        assert rc.smooth_slack < 0.0


class TestTrace:
    def test_lengths_and_finiteness(self):
        p = make_quadratic(4, 5.0, 0.3, seed=13)
        L2 = smoothness_constant(p, Euclidean())
        tr = run_steepest_descent(quad_oracle(p), Euclidean(), L2, np.ones(4), 37)
        assert len(tr) == 38
        assert tr.dist_sq.shape == (38,)
        assert np.isfinite(tr.f).all()
        assert np.isfinite(tr.dual_grad_norm).all()
        assert np.isfinite(tr.dist_sq).all()


GOLDEN_D, GOLDEN_T = 8, 300
GOLDEN_P = make_quadratic(GOLDEN_D, 50.0, 0.5, seed=3)
GOLDEN_X0 = np.random.default_rng(5).standard_normal(GOLDEN_D)
GOLDEN_PART = BlockPartition((tuple(range(4)), tuple(range(4, 8))))
GOLDEN_PART_NC = BlockPartition(((0, 2, 4), (1, 3, 5, 6, 7)))  # blocks that are not slices
GOLDEN_W = WeightedDiag(tuple(np.diag(GOLDEN_P.to_array())))  # H's diagonal, positive
GOLDEN_L = {
    "gd": smoothness_constant(GOLDEN_P, Euclidean()),
    "signgd_normscaled": smoothness_constant(GOLDEN_P, Max()),
    "cd": smoothness_constant(GOLDEN_P, One()),
    "blocknorm": smoothness_constant(GOLDEN_P, BlockMax(GOLDEN_PART)),
    "blocknorm_nc": smoothness_constant(GOLDEN_P, BlockMax(GOLDEN_PART_NC)),
    "weighted": smoothness_constant(GOLDEN_P, GOLDEN_W),
}
GOLDEN_KIND = {
    "gd": Euclidean(),
    "signgd_normscaled": Max(),
    "cd": One(),
    "blocknorm": BlockMax(GOLDEN_PART),
    "blocknorm_nc": BlockMax(GOLDEN_PART_NC),
    "weighted": GOLDEN_W,
}
# the normalized runners beyond the max geometry ("nsd" and "relaxed_nsd"):
# suffix -> the GOLDEN_KIND method whose geometry and constant they use
GOLDEN_GEOMETRY = {"euclidean": "gd", "one": "cd", "weighted": "weighted", "blockmax": "blocknorm"}
GOLDEN_NORMALIZED = tuple(f"{m}_{s}" for m in ("nsd", "relaxed_nsd") for s in GOLDEN_GEOMETRY)
GOLDEN_ADAM = {
    "adam": AdamConfig(step=1e-3),
    "adam_shuffled": AdamConfig(step=1e-3, variant="shuffled", blocks=GOLDEN_PART),
    "adam_averaged": AdamConfig(step=1e-3, variant="averaged", blocks=GOLDEN_PART),
    "adam_shuffled_nc": AdamConfig(step=1e-3, variant="shuffled", blocks=GOLDEN_PART_NC),
    "adam_averaged_nc": AdamConfig(step=1e-3, variant="averaged", blocks=GOLDEN_PART_NC),
    "adam_shuffled_whole": AdamConfig(step=1e-3, variant="shuffled"),
    "adam_averaged_whole": AdamConfig(step=1e-3, variant="averaged"),
    "momentum_sign": AdamConfig(step=1e-3, variant="momentum_sign"),
}
GOLDEN_METHODS = (*GOLDEN_KIND, "nsd", "relaxed_nsd", *GOLDEN_NORMALIZED, "signsgd", *GOLDEN_ADAM)


def golden_runs(wrap=lambda oracle: oracle):
    """The README methods on benchmark-shaped configs (d = 8, T = 300), and
    the block methods also with non-contiguous blocks or the whole vector.

    Each run's oracle is passed through ``wrap`` first.
    """
    p, x0, T = GOLDEN_P, GOLDEN_X0, GOLDEN_T

    def exact():
        return wrap(quad_oracle(p))

    def noisy():
        return wrap(quad_noisy_oracle(p, 0.5, np.random.default_rng(7)))

    def sd(method):
        kind, L = GOLDEN_KIND[method], GOLDEN_L[method]
        return lambda: run_steepest_descent(exact(), kind, L, x0, T)

    def adam(method):
        cfg = GOLDEN_ADAM[method]
        return lambda: run_adam_family(noisy(), cfg, x0, T, np.random.default_rng(9))

    def nsd(kind, L):
        return lambda: run_normalized_sd(exact(), kind, L, x0, T)

    def relaxed(kind):
        return lambda: run_relaxed_nsd(
            wrap(cosh_oracle(CoshProblem(GOLDEN_D))), kind, float(GOLDEN_D), 1.0, x0, T, 1e-300
        )

    return {
        **{method: sd(method) for method in GOLDEN_KIND},
        "nsd": nsd(Max(), GOLDEN_L["signgd_normscaled"]),
        "relaxed_nsd": relaxed(Max()),
        **{f"nsd_{s}": nsd(GOLDEN_KIND[m], GOLDEN_L[m]) for s, m in GOLDEN_GEOMETRY.items()},
        **{f"relaxed_nsd_{s}": relaxed(GOLDEN_KIND[m]) for s, m in GOLDEN_GEOMETRY.items()},
        "signsgd": lambda: run_signsgd(noisy(), 1e-3, x0, T),
        **{method: adam(method) for method in GOLDEN_ADAM},
    }


class Ref(NamedTuple):
    f: np.ndarray
    dual: np.ndarray
    dist: np.ndarray
    x: np.ndarray
    error: tuple[int, str] | None


def dot_sq(delta):
    return float(np.dot(delta, delta))


def reference_run(oracle, x0, T, step, dual, stop_tol=None, sq_dist=dot_sq):
    """The step loop as one list-appending loop per method wrote it.

    Per step: evaluate, test finiteness, record f, ``dual(g)`` and the
    squared distance to the origin ``sq_dist(x)``, test the blow-up
    limit F_BLOWUP * max(1, f_0), stop once ``dual(g) <= stop_tol``, then
    ``x = step(x, g, t, dual(g))``.
    """
    x = np.array(x0, dtype=float)
    fs, duals, dists = [], [], []

    def ref(error=None):
        return Ref(np.array(fs), np.array(duals), np.array(dists), x, error)

    for t in range(T + 1):
        try:
            f, g = oracle(x)
        except OverflowGuardError as exc:
            return ref(error=(t, str(exc)))
        if not (math.isfinite(f) and np.isfinite(g).all()):
            return ref(error=(t, "non-finite objective or gradient"))
        fs.append(f)
        dn = dual(g)
        duals.append(dn)
        dists.append(sq_dist(x))
        limit = F_BLOWUP * max(1.0, fs[0])
        if f > limit:
            return ref(error=(t, f"objective {f:.3e} exceeded {limit:.4g}"))
        if stop_tol is not None and dn <= stop_tol:
            return ref()
        if t == T:
            break
        x = step(x, g, t, dn)
    return ref()


def signs(z):
    return np.where(z >= 0.0, 1.0, -1.0)


def reference_quad_oracle(p, sigma=0.0, rng=None):
    """(x'Hx/2, Hx) by matmul, plus sigma times one standard_normal(d) draw per call with ``rng``."""
    h = p.to_array()

    def oracle(x):
        g = h @ x
        f = 0.5 * float(x @ g)
        return f, g if rng is None else g + sigma * rng.standard_normal(x.size)

    return oracle


def reference_cosh_oracle(d):
    def oracle(x):
        if np.abs(x).max() > 700.0:
            raise OverflowGuardError("coordinate magnitude exceeds overflow guard 700")
        half = np.sinh(0.5 * x)
        return 2.0 * float(np.dot(half, half)), np.sinh(x)

    return oracle


def one_norm(g):
    return float(np.abs(g).sum())


def reference_steepest_op(g, kind):
    """P(g) for the geometries the golden runs use, written out directly."""
    if isinstance(kind, Euclidean):
        return g.copy()
    if isinstance(kind, Max):
        return one_norm(g) * signs(g)
    if isinstance(kind, WeightedDiag):
        return g / np.array(kind.weights)
    out = np.zeros_like(g)
    if isinstance(kind, One):
        i = int(np.argmax(np.abs(g)))
        out[i] = g[i]
        return out
    blocks = [list(b) for b in kind.partition.blocks]
    block_norms = [float(np.sqrt(np.dot(g[idx], g[idx]))) for idx in blocks]
    total = sum(block_norms)
    for idx, nb in zip(blocks, block_norms):
        if nb > 0.0:
            out[idx] = g[idx] * (total / nb)
    return out


def adam_reference_step(cfg, rng=None, blocks=None):
    state = {"m": 0.0, "v": 0.0}

    def step(x, g, t, _):
        m = state["m"] = cfg.beta1 * state["m"] + (1.0 - cfg.beta1) * g
        v = state["v"] = cfg.beta2 * state["v"] + (1.0 - cfg.beta2) * g * g
        if cfg.variant == "standard":
            if cfg.epsilon == 0.0 and (v == 0.0).any():
                raise ValueError("degenerate input: zero second moment with epsilon = 0")
            delta = m / (np.sqrt(v) + cfg.epsilon)
        elif cfg.variant == "momentum_sign":
            delta = signs(m)
        else:
            gamma = np.abs(m) / (np.sqrt(v) + cfg.epsilon)
            magnitude = np.empty(g.size)
            for b in blocks or (tuple(range(g.size)),):
                idx = list(b)
                seg = gamma[idx]
                magnitude[idx] = seg[rng.permutation(len(idx))] if cfg.variant == "shuffled" else seg.mean()
            delta = magnitude * signs(m)
        return x - cfg.step * delta

    return step


def golden_reference_runs():
    """golden_runs through reference_run, with the oracles and updates written out."""
    p, x0, T = GOLDEN_P, GOLDEN_X0, GOLDEN_T

    def noisy():
        return reference_quad_oracle(p, 0.5, np.random.default_rng(7))

    def sd(method):
        kind, L = GOLDEN_KIND[method], GOLDEN_L[method]
        return lambda: reference_run(
            reference_quad_oracle(p), x0, T, lambda x, g, t, _: x - reference_steepest_op(g, kind) / L,
            lambda g: dual_norm(g, kind),
        )

    def adam(method):
        cfg = GOLDEN_ADAM[method]
        step = adam_reference_step(cfg, np.random.default_rng(9), cfg.blocks and cfg.blocks.blocks)
        return lambda: reference_run(noisy(), x0, T, step, one_norm)

    def nsd(kind, L):
        def step(x, g, t, dual):
            unit = reference_steepest_op(g, kind) / dual
            return x - unit * ((1.0 / math.sqrt(t + 1.0)) / L)

        return lambda: reference_run(
            reference_quad_oracle(p), x0, T, step, lambda g: dual_norm(g, kind), STATIONARY_TOL
        )

    def relaxed(kind):
        def step(x, g, t, dual):
            return x - reference_steepest_op(g, kind) / (5.0 * GOLDEN_D + 4.0 * dual)

        return lambda: reference_run(
            reference_cosh_oracle(GOLDEN_D), x0, T, step, lambda g: dual_norm(g, kind), 1e-300
        )

    return {
        **{method: sd(method) for method in GOLDEN_KIND},
        "nsd": nsd(Max(), GOLDEN_L["signgd_normscaled"]),
        "relaxed_nsd": relaxed(Max()),
        **{f"nsd_{s}": nsd(GOLDEN_KIND[m], GOLDEN_L[m]) for s, m in GOLDEN_GEOMETRY.items()},
        **{f"relaxed_nsd_{s}": relaxed(GOLDEN_KIND[m]) for s, m in GOLDEN_GEOMETRY.items()},
        "signsgd": lambda: reference_run(
            noisy(), x0, T, lambda x, g, t, _: x - 1e-3 * signs(g), one_norm
        ),
        **{method: adam(method) for method in GOLDEN_ADAM},
    }


def assert_matches_reference(tr, ref):
    """Bit-identical f rows and final iterate; row reductions within 1e-14 relative."""
    assert len(tr) == len(ref.f)
    assert tr.f.tobytes() == ref.f.tobytes()
    assert tr.x_final.tobytes() == ref.x.tobytes()
    np.testing.assert_allclose(tr.dual_grad_norm, ref.dual, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(tr.dist_sq, ref.dist, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("method", GOLDEN_METHODS)
def test_golden_iterates(method):
    tr = golden_runs()[method]()
    ref = golden_reference_runs()[method]()
    assert len(tr) == GOLDEN_T + 1
    assert_matches_reference(tr, ref)


class TestStepLoopParity:
    """Divergence and early stops agree with a plain loop."""

    QUAD = SymMatrix(np.diag([1.0, 1.0, 1.0, 1e11]))  # beyond the family's lambda_max
    X0 = 1e-6 * np.random.default_rng(2).standard_normal(4)  # f_0 <= 1: the blow-up limit is F_BLOWUP

    def _assert_parity(self, run, ref):
        if ref.error is None:
            tr = run()
        else:
            with pytest.raises(DivergenceError) as err:
                run()
            assert (err.value.step, err.value.reason) == ref.error
            tr = err.value.trace
        assert_matches_reference(tr, ref)
        return tr

    def test_gd_with_too_small_L_blows_up(self):
        p = make_quadratic(5, 20.0, 0.5, seed=1)
        x0 = np.ones(5)
        L = smoothness_constant(p, Euclidean()) / 3.0
        self._assert_parity(
            lambda: run_steepest_descent(quad_oracle(p), Euclidean(), L, x0, 500),
            reference_run(
                quad_oracle(p), x0, 500, lambda x, g, t, _: x - g / L,
                lambda g: float(np.sqrt(np.dot(g, g))),
            ),
        )

    def test_signsgd_with_large_constant_step_blows_up(self):
        oracle = quad_oracle(self.QUAD)
        tr = self._assert_parity(
            lambda: run_signsgd(oracle, 10.0, self.X0, 50),
            reference_run(
                oracle, self.X0, 50, lambda x, g, t, _: x - 10.0 * signs(g), one_norm
            ),
        )
        assert tr.f[-1] > F_BLOWUP

    def test_adam_with_large_step_blows_up(self):
        cfg = AdamConfig(step=1e4)
        oracle = quad_oracle(self.QUAD)
        self._assert_parity(
            lambda: run_adam_family(oracle, cfg, self.X0, 50, np.random.default_rng(0)),
            reference_run(oracle, self.X0, 50, adam_reference_step(cfg), one_norm),
        )

    def test_leaving_the_cosh_guard(self):
        oracle = cosh_oracle(CoshProblem(2))
        tr = self._assert_parity(
            lambda: run_steepest_descent(oracle, Euclidean(), 1e-3, [5.0, 0.0], 3),
            reference_run(oracle, [5.0, 0.0], 3, lambda x, g, t, _: x - g / 1e-3, one_norm),
        )
        assert len(tr) == 1

    def test_nsd_started_at_the_optimum(self):
        p = make_quadratic(4, 6.0, 0.3, seed=6)
        ref = reference_run(quad_oracle(p), np.zeros(4), 50, None, one_norm, STATIONARY_TOL)
        tr = self._assert_parity(lambda: run_normalized_sd(quad_oracle(p), Max(), 2.0, np.zeros(4), 50), ref)
        assert len(tr) == 1 and tr.dual_grad_norm[0] == 0.0

    def test_relaxed_nsd_hits_eps(self):
        oracle = cosh_oracle(CoshProblem(4))
        L0, L1, eps = 4.0, 1.0, 1e-2

        def step(x, g, t, dual):
            return x - dual * signs(g) / (5.0 * L0 + 4.0 * L1 * dual)

        x0 = [3.0, -1.0, 2.0, 0.5]
        tr = self._assert_parity(
            lambda: run_relaxed_nsd(oracle, Max(), L0, L1, x0, 100_000, eps),
            reference_run(oracle, x0, 100_000, step, one_norm, eps),
        )
        assert tr.dual_grad_norm[-1] <= eps

    @pytest.mark.parametrize("method", ["nsd", "relaxed_nsd"])
    def test_stopping_runs_keep_the_dual_norm_of_the_blow_up_row(self, method):
        """The over-threshold row keeps the dual norm of its gradient."""

        def blowing_up(oracle):
            # the second call reports a value far above the limit of a start below f = 1
            calls = []

            def wrapped(x):
                calls.append(x)
                f, g = oracle(x)
                return (F_BLOWUP**2 if len(calls) == 2 else f), g

            return wrapped

        p = make_quadratic(2, 4.0, 0.3, seed=8)
        start = {"nsd": (quad_oracle(p), [0.3, -0.2]), "relaxed_nsd": (cosh_oracle(CoshProblem(2)), [0.5, 0.0])}
        oracle, x0 = start[method]
        if method == "nsd":
            run = lambda: run_normalized_sd(blowing_up(oracle), Max(), 4.0, x0, 20)
            step = lambda x, g, t, dual: x - signs(g) * (1.0 / math.sqrt(t + 1.0) / 4.0)
            stop_tol = STATIONARY_TOL
        else:
            run = lambda: run_relaxed_nsd(blowing_up(oracle), Max(), 2.0, 1.0, x0, 20, 1e-3)
            step = lambda x, g, t, dual: x - dual * signs(g) / (5.0 * 2.0 + 4.0 * dual)
            stop_tol = 1e-3
        ref = reference_run(blowing_up(oracle), x0, 20, step, one_norm, stop_tol)
        assert ref.error[0] == 1 and len(ref.f) == 2
        tr = self._assert_parity(run, ref)
        assert tr.dual_grad_norm.tobytes() == ref.dual.tobytes()

    @pytest.mark.parametrize("method", ["nsd", "relaxed_nsd"])
    def test_a_start_above_the_threshold_is_no_blow_up(self, method):
        # cosh(30) - 1 > F_BLOWUP, but the limit is relative to the start
        oracle = cosh_oracle(CoshProblem(2))
        if method == "nsd":
            tr = run_normalized_sd(oracle, Max(), 4.0, [30.0, 0.0], 20)
        else:
            tr = run_relaxed_nsd(oracle, Max(), 2.0, 1.0, [30.0, 0.0], 20, 1e-3)
        assert len(tr) == 21 and tr.f[0] > F_BLOWUP and (np.diff(tr.f) < 0.0).all()

    def test_runs_past_the_first_row_chunk(self):
        """Rows stay right across chunk reductions, in a full run and in an aborted one."""
        p = make_quadratic(3, 5.0, 0.4, seed=9)
        x0 = np.ones(3)
        T = 2 * ROW_CHUNK + 5
        step = lambda x, g, t, _: x - 1e-3 * signs(g)
        self._assert_parity(
            lambda: run_signsgd(quad_oracle(p), 1e-3, x0, T),
            reference_run(quad_oracle(p), x0, T, step, one_norm),
        )

        def failing():
            calls = [0]

            def oracle(x):
                calls[0] += 1
                f, g = quad_oracle(p)(x)
                return (math.nan if calls[0] > ROW_CHUNK + 7 else f), g

            return oracle

        self._assert_parity(
            lambda: run_signsgd(failing(), 1e-3, x0, T),
            reference_run(failing(), x0, T, step, one_norm),
        )

    def test_relaxed_nsd_with_a_huge_step_cap_stops_at_eps(self):
        oracle = cosh_oracle(CoshProblem(3))
        tr = run_relaxed_nsd(oracle, Max(), 3.0, 1.0, [2.0, -1.0, 0.5], 10**15, 1e-6)
        assert tr.dual_grad_norm[-1] <= 1e-6 and len(tr) < 10_000
        assert tr.f.base is None and tr.dual_grad_norm.base is None

    def test_non_finite_gradient_with_finite_value(self):
        def oracle(x):
            g = x.copy()
            if x[0] < 0.5:
                g[1] = math.inf
            return 1.0, g

        self._assert_parity(
            lambda: run_steepest_descent(oracle, Euclidean(), 4.0, [2.0, 0.0], 10),
            reference_run(
                oracle, [2.0, 0.0], 10, lambda x, g, t, _: x - g / 4.0, lambda g: float(np.sqrt(np.dot(g, g)))
            ),
        )

    def test_adam_zero_epsilon_error_at_a_start_above_the_threshold(self):
        cfg = AdamConfig(step=1e-3, epsilon=0.0)
        oracle = cosh_oracle(CoshProblem(2))
        with pytest.raises(ValueError, match="degenerate"):
            run_adam_family(oracle, cfg, [0.0, 1.0], 5, np.random.default_rng(0))
        # cosh(30) - 1 > F_BLOWUP, but no start blows up: the update at t = 0 meets
        # the zero second moment of coordinate 1
        with pytest.raises(ValueError, match="degenerate"):
            run_adam_family(oracle, cfg, [30.0, 0.0], 5, np.random.default_rng(0))

    @pytest.mark.parametrize("method", GOLDEN_METHODS)
    def test_iterates_handed_to_the_oracle_are_never_modified(self, method):
        seen = []

        def recording(oracle):
            def recorded(x):
                seen.append((x, x.copy()))
                return oracle(x)

            return recorded

        tr = golden_runs(recording)[method]()
        assert len(seen) == len(tr)
        for x, copy in seen:
            assert np.array_equal(x, copy)


def row_dual(kind):
    """The dual norm of one gradient as the trace's row reduction computes it."""
    return lambda g: float(dual_norm_rows(g[None], kind)[0])


def row_sq_dist(delta):
    return float(_row_dots(delta[None], delta[None])[0])


def assert_bytes_match(tr, ref):
    """Every trace array and the final iterate, bit for bit."""
    assert tr.f.tobytes() == ref.f.tobytes()
    assert tr.dual_grad_norm.tobytes() == ref.dual.tobytes()
    assert tr.x_final.tobytes() == ref.x.tobytes()
    assert tr.dist_sq.tobytes() == ref.dist.tobytes()


class TestChunkBoundaries:
    """The loop reduces its rows ROW_CHUNK at a time; where a run ends or
    aborts relative to a chunk changes no bit of its trace."""

    P = make_quadratic(6, 20.0, 0.4, seed=11)
    X0 = np.random.default_rng(4).standard_normal(6)
    PART = BlockPartition(((0, 1, 2), (3, 4, 5)))
    AT = (ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1)

    @staticmethod
    def _counting(oracle, event_at, event):
        """``oracle`` whose call number ``event_at`` (0-based) goes through ``event``."""
        calls = [0]

        def counted(x):
            t, calls[0] = calls[0], calls[0] + 1
            return event(oracle, x) if t == event_at else oracle(x)

        return counted

    def _assert_run(self, run, ref, error):
        if error is None:
            tr = run()
        else:
            with pytest.raises(DivergenceError) as err:
                run()
            assert (err.value.step, err.value.reason) == ref.error
            assert ref.error[0] == error
            tr = err.value.trace
        assert_bytes_match(tr, ref)
        return tr

    @pytest.mark.parametrize("t", AT)
    @pytest.mark.parametrize("event", ["blow_up", "non_finite_gradient"])
    def test_signsgd_aborts_at_the_boundary(self, t, event):
        def hit(oracle, x):
            f, g = oracle(x)
            if event == "blow_up":
                return F_BLOWUP**2, g  # above the limit F_BLOWUP * f_0 of the start, f_0 < 1e12
            g = g.copy()
            g[2] = math.nan
            return f, g

        oracle = lambda: self._counting(quad_oracle(self.P), t, hit)
        T = 3 * ROW_CHUNK
        tr = self._assert_run(
            lambda: run_signsgd(oracle(), 1e-3, self.X0, T),
            reference_run(
                oracle(), self.X0, T, lambda x, g, t, _: x - 1e-3 * signs(g), row_dual(Max()),
                sq_dist=row_sq_dist,
            ),
            error=t,
        )
        assert len(tr) == (t + 1 if event == "blow_up" else t)

    @pytest.mark.parametrize("t", AT)
    def test_leaving_the_cosh_guard_at_the_boundary(self, t):
        def outside(oracle, x):
            return oracle(x + 1e3)  # the cosh oracle raises OverflowGuardError

        oracle = lambda: self._counting(cosh_oracle(CoshProblem(6)), t, outside)
        T = 3 * ROW_CHUNK
        tr = self._assert_run(
            lambda: run_steepest_descent(oracle(), Euclidean(), 50.0, self.X0, T),
            reference_run(
                oracle(), self.X0, T, lambda x, g, t, _: x - g / 50.0, row_dual(Euclidean()),
                sq_dist=row_sq_dist,
            ),
            error=t,
        )
        assert len(tr) == t

    @pytest.mark.parametrize("t", AT)
    @pytest.mark.parametrize("method", ["nsd", "relaxed_nsd"])
    def test_stop_tol_hit_at_the_boundary(self, t, method):
        def stationary(oracle, x):
            f, g = oracle(x)
            return f, np.zeros_like(g)

        oracle = lambda: self._counting(quad_oracle(self.P), t, stationary)
        T = 3 * ROW_CHUNK
        L = smoothness_constant(self.P, Max())
        if method == "nsd":
            run = lambda: run_normalized_sd(oracle(), Max(), L, self.X0, T)

            def step(x, g, t, dual):
                return x - (dual * signs(g) / dual) * ((1.0 / math.sqrt(t + 1.0)) / L)

            stop_tol = STATIONARY_TOL
        else:
            run = lambda: run_relaxed_nsd(oracle(), Max(), L, 0.5, self.X0, T, 1e-300)

            def step(x, g, t, dual):
                return x - dual * signs(g) / (5.0 * L + 4.0 * 0.5 * dual)

            stop_tol = 1e-300
        ref = reference_run(
            oracle(), self.X0, T, step, lambda g: dual_norm(g, Max()), stop_tol, sq_dist=row_sq_dist
        )
        tr = self._assert_run(run, ref, error=None)
        assert len(tr) == t + 1 and tr.dual_grad_norm[-1] == 0.0

    @pytest.mark.parametrize("T", [ROW_CHUNK - 1, ROW_CHUNK, 2 * ROW_CHUNK - 1, 2 * ROW_CHUNK])
    @pytest.mark.parametrize("method", ["gd", "cd", "blocknorm", "signsgd"])
    def test_full_runs_of_whole_and_split_chunks(self, T, method):
        kind = {"gd": Euclidean(), "cd": One(), "blocknorm": BlockMax(self.PART), "signsgd": Max()}[method]
        if method == "signsgd":
            run = lambda: run_signsgd(quad_oracle(self.P), 1e-3, self.X0, T)
            step = lambda x, g, t, _: x - 1e-3 * signs(g)
        else:
            L = smoothness_constant(self.P, kind)
            run = lambda: run_steepest_descent(quad_oracle(self.P), kind, L, self.X0, T)
            step = lambda x, g, t, _: x - reference_steepest_op(g, kind) / L
        ref = reference_run(
            quad_oracle(self.P), self.X0, T, step, row_dual(kind), sq_dist=row_sq_dist
        )
        tr = self._assert_run(run, ref, error=None)
        assert len(tr) == T + 1
        assert tr.f.base is None and tr.dual_grad_norm.base is None

    @pytest.mark.parametrize("T", [ROW_CHUNK, 2 * ROW_CHUNK - 1])
    @pytest.mark.parametrize("kind", ALL_KINDS_D6, ids=lambda kind: type(kind).__name__)
    @pytest.mark.parametrize("method", ["nsd", "relaxed_nsd"])
    def test_stopping_runs_record_the_duals_they_step_with(self, T, kind, method):
        """A stopping run's dual column, reduced per chunk, has the bits of
        the per-step dual norm that its stop test and update used."""
        L = smoothness_constant(self.P, kind)
        if method == "nsd":
            run = lambda: run_normalized_sd(quad_oracle(self.P), kind, L, self.X0, T)

            def step(x, g, t, dual):
                return x - reference_steepest_op(g, kind) / dual * ((1.0 / math.sqrt(t + 1.0)) / L)

            stop_tol = STATIONARY_TOL
        else:
            run = lambda: run_relaxed_nsd(quad_oracle(self.P), kind, L, 0.5, self.X0, T, 1e-300)

            def step(x, g, t, dual):
                return x - reference_steepest_op(g, kind) / (5.0 * L + 4.0 * 0.5 * dual)

            stop_tol = 1e-300
        ref = reference_run(
            quad_oracle(self.P), self.X0, T, step, lambda g: dual_norm(g, kind), stop_tol, sq_dist=row_sq_dist
        )
        tr = self._assert_run(run, ref, error=None)
        assert len(tr) == T + 1

    def test_negative_step_count_is_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            run_signsgd(quad_oracle(self.P), 1e-3, self.X0, -1)


class TestChunkScan:
    """The loop checks a chunk's rows when the chunk fills, when the run
    ends, and when the oracle or the update raises: a run diverging at step
    t may compute on to the end of t's chunk, and reports what a loop
    checking every step reports."""

    P = TestChunkBoundaries.P
    X0 = TestChunkBoundaries.X0
    T = 3 * ROW_CHUNK
    AT = (5, ROW_CHUNK + 5)
    _counting = staticmethod(TestChunkBoundaries._counting)
    _assert_run = TestChunkBoundaries._assert_run

    @staticmethod
    def _nan_value(oracle, x):
        return math.nan, oracle(x)[1]

    @pytest.mark.parametrize("t", AT)
    @pytest.mark.parametrize("later", ["guard", "update_error", "stop"])
    def test_a_non_finite_row_wins_over_a_later_event_in_its_chunk(self, t, later):
        def guard(oracle, x):
            raise OverflowGuardError("coordinate magnitude exceeds overflow guard 700")

        def zero_coordinate(oracle, x):  # a zero second moment: adam with epsilon 0 raises
            f, g = oracle(x)
            g = g.copy()
            g[0] = 0.0
            return f, g

        def stationary(oracle, x):
            f, g = oracle(x)
            return f, np.zeros_like(g)

        event = {"guard": guard, "update_error": zero_coordinate, "stop": stationary}[later]
        calls = []

        def oracle():
            counted = self._counting(self._counting(quad_oracle(self.P), t, self._nan_value), t + 3, event)
            return lambda x: calls.append(None) or counted(x)

        if later == "stop":
            L = smoothness_constant(self.P, Max())
            run = lambda: run_normalized_sd(oracle(), Max(), L, self.X0, self.T)
            step = lambda x, g, t, dual: x - signs(g) * ((1.0 / math.sqrt(t + 1.0)) / L)
            stop_tol = STATIONARY_TOL
        else:
            cfg = AdamConfig(step=1e-3, beta2=0.0, epsilon=0.0)
            run = lambda: run_adam_family(oracle(), cfg, self.X0, self.T, np.random.default_rng(0))
            step, stop_tol = adam_reference_step(cfg), None
        ref = reference_run(oracle(), self.X0, self.T, step, row_dual(Max()), stop_tol, sq_dist=row_sq_dist)
        assert ref.error == (t, "non-finite objective or gradient")
        calls.clear()
        tr = self._assert_run(run, ref, error=t)
        assert len(tr) == t
        assert len(calls) == t + 4  # the event's step ends the run

    @pytest.mark.parametrize("t", AT)
    def test_a_blow_up_row_wins_over_a_later_non_finite_row(self, t):
        def blow_up(oracle, x):
            return F_BLOWUP**2, oracle(x)[1]

        def nan_gradient(oracle, x):
            return oracle(x)[0], np.full(self.X0.size, math.nan)

        oracle = lambda: self._counting(self._counting(quad_oracle(self.P), t, blow_up), t + 2, nan_gradient)
        ref = reference_run(
            oracle(), self.X0, self.T, lambda x, g, t, _: x - 1e-3 * signs(g), row_dual(Max()),
            sq_dist=row_sq_dist,
        )
        assert ref.error[0] == t and ref.error[1].startswith(f"objective {F_BLOWUP**2:.3e} exceeded")
        tr = self._assert_run(lambda: run_signsgd(oracle(), 1e-3, self.X0, self.T), ref, error=t)
        assert len(tr) == t + 1

    @pytest.mark.parametrize("t", AT)
    def test_an_oracle_error_after_finite_rows_propagates_unchanged(self, t):
        raised = []

        def fail(oracle, x):
            raised.append(ValueError("the oracle cannot evaluate here"))
            raise raised[-1]

        oracle = lambda: self._counting(quad_oracle(self.P), t, fail)
        with pytest.raises(ValueError) as ref_err:
            reference_run(oracle(), self.X0, self.T, lambda x, g, t, _: x - 1e-3 * signs(g), one_norm)
        with pytest.raises(ValueError) as err:
            run_signsgd(oracle(), 1e-3, self.X0, self.T)
        assert ref_err.value is raised[0] and err.value is raised[1]
        assert type(err.value) is ValueError

    def test_an_interrupt_is_not_routed_through_the_scan(self):
        def interrupt(oracle, x):
            raise KeyboardInterrupt

        oracle = self._counting(self._counting(quad_oracle(self.P), 5, self._nan_value), 8, interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_signsgd(oracle, 1e-3, self.X0, self.T)

    def test_a_run_overflowing_after_its_divergence_raises_divergence(self):
        # L far below H's curvature: f passes its limit within a few steps, and
        # the steps left in the chunk overflow, which the loop computes silently
        L = 1e-3
        calls = []

        def oracle(x):
            calls.append(None)
            return quad_oracle(self.P)(x)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                run_steepest_descent(oracle, Euclidean(), L, self.X0, self.T)
        with np.errstate(all="ignore"):
            ref = reference_run(
                quad_oracle(self.P), self.X0, self.T, lambda x, g, t, _: x - g / L, row_dual(Euclidean()),
                sq_dist=row_sq_dist,
            )
        assert (err.value.step, err.value.reason) == ref.error
        assert "exceeded" in err.value.reason
        assert_bytes_match(err.value.trace, ref)
        assert err.value.step < len(calls) <= ROW_CHUNK
        calls.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergenceError) as again:
                run_steepest_descent(oracle, Euclidean(), L, self.X0, self.T)
        assert caught == []
        assert (again.value.step, again.value.reason) == ref.error
        assert len(calls) == ROW_CHUNK  # the rest of the chunk ran, overflowing

    @staticmethod
    def _short_gradient(oracle, x):
        f, g = oracle(x)
        return f, g[:-1]

    @staticmethod
    def _none(oracle, x):
        oracle(x)
        return None

    MALFORMED = {"short_gradient": _short_gradient, "none": _none}

    @pytest.mark.parametrize("t", AT)
    @pytest.mark.parametrize("malformed", MALFORMED)
    def test_malformed_oracle_output_after_a_non_finite_row(self, t, malformed):
        calls = []

        def oracle():
            counted = self._counting(
                self._counting(quad_oracle(self.P), t, self._nan_value), t + 3, self.MALFORMED[malformed]
            )
            return lambda x: calls.append(None) or counted(x)

        ref = reference_run(
            oracle(), self.X0, self.T, lambda x, g, t, _: x - 1e-3 * signs(g), row_dual(Max()),
            sq_dist=row_sq_dist,
        )
        assert ref.error == (t, "non-finite objective or gradient")
        calls.clear()
        tr = self._assert_run(lambda: run_signsgd(oracle(), 1e-3, self.X0, self.T), ref, error=t)
        assert len(tr) == t
        assert len(calls) == t + 4  # the malformed step ends the run

    @pytest.mark.parametrize("t", AT)
    @pytest.mark.parametrize("malformed", MALFORMED)
    def test_malformed_oracle_output_after_finite_rows_propagates_unchanged(self, t, malformed):
        calls = []
        counted = self._counting(quad_oracle(self.P), t, self.MALFORMED[malformed])
        oracle = lambda x: calls.append(None) or counted(x)
        output = self.MALFORMED[malformed](quad_oracle(self.P), self.X0)
        F, G = np.empty(1), np.empty((1, self.X0.size))
        with pytest.raises(Exception) as row_err:  # what storing the output in a row raises
            F[0], G[0] = output
        with pytest.raises(Exception) as err:
            run_signsgd(oracle, 1e-3, self.X0, self.T)
        assert type(err.value) is type(row_err.value) and str(err.value) == str(row_err.value)
        assert err.value.__cause__ is None and err.value.__context__ is None
        assert err.traceback[-1].name == "_drive"  # raised where the row was stored, then re-raised
        assert len(calls) == t + 1


class TestResolvedKernels:
    """The update rules call each geometry's methods, and give the bits of
    the checked public operators."""

    def test_max_unit_direction_is_the_sign_vector(self):
        rng = np.random.default_rng(60)
        for scale in 10.0 ** np.arange(-300, 301, 25):
            g = rng.standard_normal(8) * scale
            g[rng.integers(8)] = rng.choice([0.0, -0.0])
            unit = steepest_op(g, Max()) / np.array(dual_norm(g, Max()))
            assert sign_unit(g).tobytes() == unit.tobytes()

    def test_nsd_divides_by_an_infinite_dual_norm(self):
        # sum |g| overflows on a finite gradient: P(g) / ||g||_1 is NaN, not sign(g)
        def oracle(x):
            return float(np.abs(x).sum()), np.full(2, 1e308) + x

        def step(x, g, t, dual):
            return x - reference_steepest_op(g, Max()) / dual * (1.0 / math.sqrt(t + 1.0))

        with np.errstate(all="ignore"):
            ref = reference_run(oracle, [0.0, 0.0], 5, step, one_norm, STATIONARY_TOL)
            with pytest.raises(DivergenceError) as err:
                run_normalized_sd(oracle, Max(), 1.0, [0.0, 0.0], 5)
        assert ref.error == (1, "non-finite objective or gradient")
        assert (err.value.step, err.value.reason) == ref.error
        assert err.value.trace.dual_grad_norm.tolist() == [math.inf]

    def test_cd_keeps_the_bits_of_untouched_coordinates(self):
        p = make_quadratic(5, 20.0, 0.0, seed=4)  # diagonal: zero coordinates stay zero
        x0 = np.array([-0.0, 2.0, 0.0, -3.0, -0.0])
        L = smoothness_constant(p, One())
        tr = run_steepest_descent(quad_oracle(p), One(), L, x0, 40)
        ref = reference_run(
            quad_oracle(p), x0, 40, lambda x, g, t, _: x - reference_steepest_op(g, One()) / L,
            lambda g: dual_norm(g, One()),
        )
        assert_matches_reference(tr, ref)
        assert np.signbit(tr.x_final[[0, 4]]).all()

    @pytest.mark.parametrize("kind", ["max", None, Euclidean], ids=repr)
    def test_runs_reject_what_is_no_norm_kind(self, kind):
        for run in (
            lambda: run_steepest_descent(_identity_oracle, kind, 1.0, [1.0, 2.0], 3),
            lambda: run_normalized_sd(_identity_oracle, kind, 1.0, [1.0, 2.0], 3),
            lambda: run_relaxed_nsd(_identity_oracle, kind, 1.0, 1.0, [1.0, 2.0], 3, 1e-6),
        ):
            with pytest.raises(TypeError, match="unknown norm kind"):
                run()

    @pytest.mark.parametrize("kind", [WeightedDiag((1.0, 2.0, 3.0)), BlockMax(BlockPartition(((0, 1, 2),)))],
                             ids=lambda k: type(k).__name__)
    def test_runs_check_the_dimension_once(self, kind):
        calls = []

        def oracle(x):
            calls.append(x)
            return 0.5 * float(x @ x), x.copy()

        for run in (
            lambda: run_steepest_descent(oracle, kind, 1.0, [1.0, 2.0], 3),
            lambda: run_normalized_sd(oracle, kind, 1.0, [1.0, 2.0], 3),
            lambda: run_relaxed_nsd(oracle, kind, 1.0, 1.0, [1.0, 2.0], 3, 1e-6),
        ):
            with pytest.raises(ValueError, match="expected 2"):
                run()
        assert calls == []

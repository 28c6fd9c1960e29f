"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see all
lines; failures show them regardless)."""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import random_pd_2x2, random_psd, random_sym

from normdescent import (
    AdamConfig,
    BlockMax,
    BlockPartition,
    CoshProblem,
    Euclidean,
    Max,
    One,
    SymMatrix,
    WeightedDiag,
    adam_gamma,
    cosh_eval,
    cosh_oracle,
    eigh,
    is_psd,
    linf_bounds,
    linf_bruteforce,
    lsep_exact_2x2,
    lsep_rowsum,
    make_quadratic,
    quad_eval,
    quad_oracle,
    rho_diag,
    run_adam_family,
    run_normalized_sd,
    run_relaxed_nsd,
    run_steepest_descent,
    sign_unit,
    smoothness_constant,
    verify_rate_bounds,
)
from normdescent.problems import QuadraticProblem


def report(number, name, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {status}  {name}")
    assert passed, f"criterion {number}: {name}"


def kinds_for_dim(d, rng):
    mid = d // 2
    return [
        Euclidean(),
        Max(),
        One(),
        WeightedDiag(tuple(rng.uniform(0.5, 3.0, d))),
        BlockMax(BlockPartition((tuple(range(mid)), tuple(range(mid, d))))),
    ]


def test_criterion_01_closed_forms_2x2():
    rng = np.random.default_rng(1001)
    ok = True
    for _ in range(1000):
        h = random_pd_2x2(rng)
        a = h.to_array()
        closed = a[0, 0] + a[1, 1] + 2.0 * abs(a[0, 1])
        ok &= abs(linf_bruteforce(h) - closed) <= 1e-12
        ok &= abs(lsep_exact_2x2(h) - closed) <= 1e-12
    report(1, "2x2 closed forms: exact norm = a+d+2|b| = separable optimum", ok)


def test_criterion_02_norm_sandwich():
    rng = np.random.default_rng(1002)
    ok = True
    for i in range(200):
        d = 2 + i % 9
        h = random_sym(rng, d)
        dec = eigh(h)
        l2 = max(abs(dec.values[0]), abs(dec.values[-1]))
        linf = linf_bruteforce(h)
        ok &= l2 <= linf + 1e-10
        ok &= linf <= d * l2 + 1e-10
    report(2, "sandwich L2 <= Linf <= d*L2 on 200 random symmetric matrices", ok)


def test_criterion_03_upper_and_lower_bounds():
    rng = np.random.default_rng(1003)
    ok = True
    for i in range(200):
        d = 2 + i % 9
        h = random_psd(rng, d)
        exact = linf_bruteforce(h)
        bound_psd, bound_sym, lower = linf_bounds(h)
        slack = 1e-10 * max(1.0, exact)
        ok &= lower <= exact + slack
        ok &= exact <= min(bound_psd, bound_sym) + slack
    for i in range(50):
        d = 2 + i % 9
        h = SymMatrix.diagonal(rng.uniform(0.1, 5.0, d))
        exact = linf_bruteforce(h)
        bound_psd, bound_sym, _ = linf_bounds(h)
        ok &= abs(exact - bound_psd) <= 1e-10
        ok &= abs(exact - bound_sym) <= 1e-10
    report(3, "lower <= Linf <= min(upper bounds); all tight on diagonals", ok)


def test_criterion_04_separable_chain():
    rng = np.random.default_rng(1004)
    ok = True
    for i in range(200):
        d = 2 + i % 9
        h = random_psd(rng, d)
        l, total = lsep_rowsum(h)
        gap = SymMatrix.from_array(np.diag(l) - h.to_array())
        ok &= is_psd(gap, 1e-10)
        concentration = eigh(h).values.sum() / rho_diag(h)
        slack = 1e-10 * max(1.0, total)
        ok &= linf_bruteforce(h) <= total + slack
        ok &= total <= concentration + slack
    report(4, "row-sum surrogate chain with feasible diagonal bound", ok)


def test_criterion_05_descent_lemma():
    rng = np.random.default_rng(1005)
    ok = True
    for i in range(20):
        d = 4 + i % 7
        p = make_quadratic(d, float(rng.uniform(1.0, 10.0)), float(rng.uniform(0.0, 1.0)), seed=2000 + i)
        x0 = rng.standard_normal(d)
        for kind in kinds_for_dim(d, rng):
            L = smoothness_constant(p.matrix, kind)
            tr = run_steepest_descent(quad_oracle(p), kind, L, x0, 200)
            lhs = tr.f[1:]
            rhs = tr.f[:-1] - tr.dual_grad_norm[:-1] ** 2 / (2.0 * L)
            ok &= bool((lhs <= rhs + 1e-10).all())
    report(5, "per-step descent f' <= f - ||g||*^2/(2L) for every geometry", ok)


def test_criterion_06_rate_suite():
    rng = np.random.default_rng(1006)
    ok = True
    for i in range(10):
        d = 4 + i % 5
        base = random_psd(rng, d).to_array() + 0.05 * np.eye(d)
        p = QuadraticProblem.from_matrix(SymMatrix.from_array(base))
        lam_min = eigh(p.matrix).values[0]
        x0 = rng.standard_normal(d)
        f0, _ = quad_eval(p, x0)
        radius = math.sqrt(2.0 * f0 / lam_min)
        for kind in (Euclidean(), Max()):
            L = smoothness_constant(p.matrix, kind)
            tr = run_steepest_descent(quad_oracle(p), kind, L, x0, 500)
            rc = verify_rate_bounds(tr, L, 0.0, mu=lam_min, radius=radius, kind=kind)
            ok &= rc.passed
    report(6, "stationarity, linear, and convex rates hold at every prefix", ok)


def test_criterion_07_normalized_descent_rate():
    rng = np.random.default_rng(1007)
    ok = True
    for i in range(10):
        d = 4 + i % 5
        p = make_quadratic(d, float(rng.uniform(2.0, 20.0)), float(rng.uniform(0.0, 1.0)), seed=3000 + i)
        x0 = rng.standard_normal(d)
        for kind in kinds_for_dim(d, rng):
            L = smoothness_constant(p.matrix, kind)
            tr = run_normalized_sd(quad_oracle(p), kind, L, x0, 1000)
            T = len(tr) - 1
            lhs = tr.dual_grad_norm[:-1].mean()
            rhs = L * tr.f[0] / math.sqrt(T) + math.log(T + 1.0) / (2.0 * math.sqrt(T))
            ok &= lhs <= rhs * (1.0 + 1e-9)
    report(7, "normalized descent gradient-average rate at T=1000", ok)


def test_criterion_08_relaxed_smoothness_suite():
    p = CoshProblem(4)
    L0, L1 = 4.0, 1.0
    x0 = [3.0, 3.0, 3.0, 3.0]
    ok = True
    for eps in (1e-1, 1e-2):
        tr = run_relaxed_nsd(cosh_oracle(p), Max(), L0, L1, x0, 500_000, eps)
        f0 = tr.f[0]
        bound = 18.0 * f0 * max(L0 / eps**2, L1**2 / L0)
        ok &= tr.hit_index is not None and tr.hit_index <= bound
        ok &= tr.dual_grad_norm[tr.hit_index] <= eps
        # every step is shorter than 1/L1, so the growth bound applies
        dual = tr.dual_grad_norm
        ok &= bool((dual[1:] <= 4.0 * (L0 / L1 + dual[:-1]) + 1e-10).all())
    report(8, "soft-normalized descent reaches eps-stationarity within bound", ok)


def test_criterion_09_benchmark_grid(tmp_path):
    cfg = {
        "d": 8,
        "lambda_max_values": [2.0, 50.0],
        "theta_values": [0.0, 1.0],
        "T": 100,
        "repeats": 64,
        "skew_seed": 11,
        "x0_seed": 7,
        "sigma": 0.0,
    }
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps(cfg))
    start = time.monotonic()
    res = subprocess.run(
        [sys.executable, "-m", "normdescent.cli", "quadgrid", "--config", str(cfg_path)],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - start
    assert res.returncode == 0, res.stderr
    rows = {
        (float(parts[0]), float(parts[1])): [float(v) for v in parts]
        for parts in (ln.split(",") for ln in res.stdout.splitlines()[1:])
    }
    ratio_alignment_low = rows[(50.0, 0.0)][4]
    ratio_alignment_high = rows[(50.0, 1.0)][4]
    ok = ratio_alignment_low < ratio_alignment_high
    ok &= rows[(50.0, 0.0)][7] < 0.0  # sign descent wins when stiff and aligned
    ok &= rows[(2.0, 1.0)][7] > 0.0  # gradient descent wins when mild and rotated
    ok &= elapsed < 60.0
    report(9, "benchmark grid reproduces the alignment/stiffness structure", ok)


def test_criterion_10_moving_average_decomposition():
    rng = np.random.default_rng(1010)
    m = rng.standard_normal(10_000) * 10.0 ** rng.integers(-3, 4, 10_000)
    v = np.abs(rng.standard_normal(10_000)) * 10.0 ** rng.integers(-3, 4, 10_000)
    eps = 1e-8
    gamma = adam_gamma(m, v, eps)
    direct = m / (np.sqrt(v) + eps)
    err = np.abs(gamma * sign_unit(m) - direct)
    ok = bool((err <= 1e-15 * np.maximum(1.0, np.abs(direct))).all())

    part = BlockPartition(((0, 1, 2), (3, 4)))
    p = make_quadratic(5, 6.0, 0.4, seed=11)

    class Recorder:
        def __init__(self):
            self.xs = []

        def __call__(self, x):
            self.xs.append(np.array(x))
            return quad_eval(p, x)

    for variant in ("shuffled", "averaged"):
        cfg = AdamConfig(step=0.05, variant=variant, blocks=part)
        rec = Recorder()
        run_adam_family(rec, cfg, rng.standard_normal(5), 50, np.random.default_rng(12))
        mm = np.zeros(5)
        vv = np.zeros(5)
        for t in range(len(rec.xs) - 1):
            _, g = quad_eval(p, rec.xs[t])
            mm = cfg.beta1 * mm + (1.0 - cfg.beta1) * g
            vv = cfg.beta2 * vv + (1.0 - cfg.beta2) * g * g
            gam = adam_gamma(mm, vv, cfg.epsilon)
            # applied magnitudes reconstructed from iterate differences carry
            # subtraction rounding of order ulp(x)/step, hence 1e-12
            applied = np.abs(rec.xs[t + 1] - rec.xs[t]) / cfg.step
            for b in part.blocks:
                idx = list(b)
                if variant == "shuffled":
                    ok &= bool(
                        np.allclose(np.sort(applied[idx]), np.sort(gam[idx]), rtol=1e-12, atol=1e-12)
                    )
                else:
                    mean = gam[idx].mean()
                    ok &= bool(np.abs(applied[idx] - mean).max() <= 1e-12 * max(1.0, mean))

    p1 = QuadraticProblem.from_matrix(SymMatrix.diagonal([2.0]))
    a = run_adam_family(quad_oracle(p1), AdamConfig(step=0.05), [1.5], 100, np.random.default_rng(1))
    b = run_adam_family(
        quad_oracle(p1), AdamConfig(step=0.05, variant="shuffled"), [1.5], 100, np.random.default_rng(1)
    )
    ok &= bool(np.array_equal(a.f, b.f) and np.array_equal(a.x_final, b.x_final))
    report(10, "sign-times-magnitude decomposition and its variants", ok)


def test_criterion_11_byte_determinism(tmp_path):
    run_cfg = {
        "problem": {"quadratic": {"d": 6, "lambda_max": 12.0, "theta": 0.6, "seed": 4, "sigma": 0.2}},
        "optimizer": {"method": "adam_shuffled", "step": 0.05, "blocks": [[0, 1, 2], [3, 4, 5]], "seed": 9},
        "T": 60,
        "x0_seed": 5,
    }
    grid_cfg = {
        "d": 6,
        "lambda_max_values": [2.0, 50.0],
        "theta_values": [0.0, 1.0],
        "T": 50,
        "repeats": 16,
        "skew_seed": 3,
        "x0_seed": 8,
    }
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(run_cfg))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid_cfg))

    def invoke(cmd, cfg_path, threads):
        env = dict(os.environ, NORM_DESCENT_THREADS=threads)
        res = subprocess.run(
            [sys.executable, "-m", "normdescent.cli", cmd, "--config", str(cfg_path)],
            capture_output=True,
            env=env,
        )
        assert res.returncode == 0, res.stderr
        return res.stdout

    ok = True
    for cmd, cfg_path in (("run", run_path), ("quadgrid", grid_path)):
        outputs = [invoke(cmd, cfg_path, t) for t in ("1", "1", "4")]
        ok &= outputs[0] == outputs[1] == outputs[2]
    report(11, "byte-identical output across reruns and thread counts", ok)


def test_criterion_12_gradient_correctness():
    def central_diff(value_fn, x, h):
        g = np.empty_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * h)
        return g

    rng = np.random.default_rng(1012)
    ok = True
    quad = make_quadratic(6, 9.0, 0.5, seed=21)
    cosh_p = CoshProblem(6)
    cases = [
        (lambda x: quad_eval(quad, x), lambda: rng.standard_normal(6) * 2.0),
        (lambda x: cosh_eval(cosh_p, x), lambda: rng.uniform(-3.0, 3.0, 6)),
    ]
    for oracle, draw in cases:
        for _ in range(50):
            x = draw()
            _, g = oracle(x)
            h = 1e-5 * (1.0 + np.abs(x).max())
            fd = central_diff(lambda y: oracle(y)[0], x, h)
            ok &= bool(np.abs(fd - g).max() <= 1e-6 * max(1.0, np.abs(g).max()))
    report(12, "oracles match central finite differences at 50 points each", ok)

"""Seeded inputs of the benchmark workloads.

Every config and matrix file is generated here from the workload seed and
written into a work directory; the program only reads those files.  The
reference each invocation is checked against is computed here too, once
per seed and before any timed pass.

* ``grid``: ``quadgrid`` with the paper's default config (d=8, 7 x 6 cells
  of lambda_max x theta, 64 repeats, T=100, sigma=0).  The per-step loop
  dominates it.
* ``analyze-d24``: ``analyze`` on one d=24 PSD matrix with spectrum
  (1, ..., 1, 50) rotated at theta 0.5.  Exact ``Linf`` enumeration of 2^24
  sign vectors dominates it; no optimizer runs.
* ``runs``: one long ``run`` per method of the README table, each a batch of
  one.  Start-up, CSV formatting and every update rule are on its path.

``small=True`` shrinks every size for the harness self-test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("grid", "analyze-d24", "runs")


@dataclass(frozen=True)
class Invocation:
    label: str
    args: list[str]  # command-line arguments after the program name
    check: Callable[[str], list[str]]  # stdout -> problems, empty when correct
    work: Callable[[str], int]  # stdout -> units of work done


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str
    invocations: list[Invocation]


def _seeds(name: str, seed: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return [int(v) for v in rng.integers(0, 2**31, size=n)]


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


def _constant(value: int, _stdout: str) -> int:
    return value


def _trace_steps(stdout: str) -> int:
    return max(0, stdout.count("\n") - 2)  # header and the t=0 row are not steps


def _grid(seed: int, workdir: Path, small: bool) -> Workload:
    skew_seed, x0_seed = _seeds("grid", seed, 2)
    cfg = {
        "d": 8,
        "lambda_max_values": [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0],
        "theta_values": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0],
        "T": 100,
        "repeats": 64,
        "skew_seed": skew_seed,
        "x0_seed": x0_seed,
        "sigma": 0.0,
    }
    if small:
        cfg.update(lambda_max_values=[1.0, 10.0, 100.0], theta_values=[0.0, 0.5], T=20, repeats=4)
    path = _write_json(workdir / "grid.json", cfg)
    steps = len(cfg["lambda_max_values"]) * len(cfg["theta_values"]) * cfg["repeats"] * 2 * cfg["T"]
    inv = Invocation(
        "quadgrid",
        ["quadgrid", "--config", path],
        partial(checks.check_grid, ref=checks.grid_reference(cfg)),
        partial(_constant, steps),
    )
    return Workload("grid", "steps", [inv])


def _analyze(seed: int, workdir: Path, small: bool) -> Workload:
    (skew_seed,) = _seeds("analyze-d24", seed, 1)
    d = 10 if small else 24
    S = checks.skew_generator(d, np.random.default_rng(skew_seed))
    h = checks.rotated_quadratic(d, 50.0, 0.5, S)
    path = workdir / f"matrix_d{d}.txt"
    path.write_text(f"{d}\n" + "".join(" ".join(f"{v:.17g}" for v in row) + "\n" for row in h))
    a = np.loadtxt(path, skiprows=1)  # the reference reads the same decimal text
    inv = Invocation(
        "analyze",
        ["analyze", str(path)],
        partial(checks.check_analyze, ref=checks.analyze_reference(a)),
        partial(_constant, 1 << d),
    )
    return Workload("analyze-d24", "sign_vectors", [inv])


def _run_configs(seed: int, small: bool) -> dict[str, dict]:
    problem_seed, x0_seed, noise_seed, shuffle_seed, theta_draw = _seeds("runs", seed, 5)
    d = 8
    theta = 0.2 + 0.6 * theta_draw / 2**31
    quad = {"d": d, "lambda_max": 50.0, "theta": theta, "seed": problem_seed}
    noisy = {"quadratic": dict(quad, sigma=0.5, noise_seed=noise_seed)}
    exact = {"quadratic": dict(quad, sigma=0.0)}
    blocks = [list(range(d // 2)), list(range(d // 2, d))]
    step = {"constant": 1e-3}
    methods = {
        "gd": (exact, {"method": "gd"}),
        "signgd_normscaled": (exact, {"method": "signgd_normscaled"}),
        "cd": (exact, {"method": "cd"}),
        "blocknorm": (exact, {"method": "blocknorm", "blocks": blocks}),
        "nsd": (exact, {"method": "nsd"}),
        "relaxed_nsd": ({"cosh": {"d": d}}, {"method": "relaxed_nsd", "L0": float(d), "L1": 1.0, "eps": 1e-300}),
        "signsgd": (noisy, {"method": "signsgd", "step": step}),
        "adam": (noisy, {"method": "adam", "step": 1e-3}),
        "adam_shuffled": (noisy, {"method": "adam_shuffled", "step": 1e-3, "blocks": blocks, "seed": shuffle_seed}),
        "adam_averaged": (noisy, {"method": "adam_averaged", "step": 1e-3, "blocks": blocks}),
        "momentum_sign": (noisy, {"method": "momentum_sign", "step": 1e-3}),
    }
    T = 200 if small else 15000
    return {
        name: {"problem": problem, "optimizer": opt, "T": T, "x0_seed": x0_seed}
        for name, (problem, opt) in methods.items()
    }


def _runs(seed: int, workdir: Path, small: bool) -> Workload:
    invocations = []
    for name, cfg in _run_configs(seed, small).items():
        path = _write_json(workdir / f"run_{name}.json", cfg)
        invocations.append(Invocation(
            f"run:{name}",
            ["run", "--config", path],
            partial(checks.check_run, ref=checks.run_reference(cfg)),
            _trace_steps,
        ))
    return Workload("runs", "steps", invocations)


def build(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """Write the inputs of workload ``name`` into ``workdir`` and return it."""
    builders = {"grid": _grid, "analyze-d24": _analyze, "runs": _runs}
    return builders[name](seed, workdir, small)

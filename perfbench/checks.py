"""Independent references and the correctness check of every invocation.

Nothing here imports the package under test.  The rotation uses scipy's
``expm``, ``L2`` numpy's ``eigvalsh``, ``Linf`` a chunked brute force over
sign vectors, and the grid's two methods a batched re-run over all starting
points of a cell.  Numeric fields are compared within the tolerances below,
never byte for byte, so a change that only moves the last digits still
passes.  Each ``check_*`` function returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
from scipy.linalg import expm

REL_TOL = 1e-9  # one constant computed two ways from the same matrix
DIST_REL_TOL = 1e-6  # mean squared distance after T steps
LOG_RATIO_ABS_TOL = 1e-6
ROUNDING_LEVEL = 1e-20  # a mean squared distance below this is rounding noise
MONOTONE_REL_SLACK = 1e-12
NSD_STATIONARY_TOL = 1e-14  # normalized descent stops at this dual norm

TRACE_HEADER = "t,f,dual_grad_norm,dist_sq"
GRID_HEADER = (
    "lambda_max,theta,L2,Linf,ratio_smoothness,"
    "mean_dist_gd,mean_dist_signgd,log10_perf_ratio"
)
ANALYZE_KEYS = (
    "L2", "Linf_exact", "rho_diag", "bound_psd", "bound_sym",
    "lower_bound", "lsep_rowsum", "ratio_dL2_over_Linf",
)


# ----------------------------------------------------------------- references

def skew_generator(d: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian skew matrix scaled to spectral norm pi.

    The strictly-upper entries are drawn in ``triu_indices`` order, the
    documented draw of the paper's rotation family.
    """
    upper = np.zeros((d, d))
    iu = np.triu_indices(d, 1)
    upper[iu] = rng.standard_normal(iu[0].size)
    s = upper - upper.T
    return s * (math.pi / np.linalg.norm(s, 2))


def rotated_quadratic(d: int, lambda_max: float, theta: float, S: np.ndarray) -> np.ndarray:
    """Q diag(1, ..., 1, lambda_max) Q' with Q = exp(theta * S), symmetrized."""
    q = expm(theta * S)
    h = (q * np.r_[np.ones(d - 1), float(lambda_max)]) @ q.T
    return 0.5 * (h + h.T)


def _sign_columns(k: int) -> np.ndarray:
    """All 2^k sign vectors of length k as the columns of a k x 2^k array."""
    cols = np.arange(1 << k)
    return 1.0 - 2.0 * ((cols[None, :] >> np.arange(k)[:, None]) & 1)


def linf_bruteforce(a: np.ndarray, chunk_bits: int = 16) -> float:
    """max over sign vectors s of ||a s||_1, in chunks of 2^chunk_bits vectors.

    ||a(-s)||_1 = ||a s||_1, so the last coordinate is fixed to +1.
    """
    d = a.shape[0]
    k = min(d - 1, chunk_bits)
    low = a[:, :k] @ _sign_columns(k)
    best = 0.0
    for high in _sign_columns(d - 1 - k).T:
        shift = a[:, k:] @ np.r_[high, 1.0]
        best = max(best, float(np.abs(low + shift[:, None]).sum(axis=0).max()))
    return best


def grid_reference(cfg: dict) -> list[list[float]]:
    """Rows of the noiseless paired grid, recomputed one cell at a time.

    Both methods advance all ``repeats`` starting points of a cell as one
    array: gradient descent with step 1/L2 and sign descent
    x <- x - ||g||_1 sign(g) / Linf, with sign(0) = +1.
    """
    if cfg["sigma"] != 0.0:
        raise ValueError("the grid reference covers sigma = 0 only")
    d, T, R = cfg["d"], cfg["T"], cfg["repeats"]
    S = skew_generator(d, np.random.default_rng(cfg["skew_seed"]))
    signs = _sign_columns(d)
    lams, thetas = cfg["lambda_max_values"], cfg["theta_values"]
    rows = []
    for li in sorted(range(len(lams)), key=lambda i: lams[i]):
        for ti in sorted(range(len(thetas)), key=lambda i: thetas[i]):
            h = rotated_quadratic(d, lams[li], thetas[ti], S)
            l2 = float(np.abs(np.linalg.eigvalsh(h)).max())
            linf = float(np.abs(h @ signs).sum(axis=0).max())
            x0 = np.random.default_rng([cfg["x0_seed"], li, ti]).standard_normal((R, d))
            x = x0.copy()
            for _ in range(T):
                x = x - (x @ h) / l2
            gd = float((x * x).sum(axis=1).mean())
            x = x0.copy()
            for _ in range(T):
                g = x @ h
                x = x - np.abs(g).sum(axis=1)[:, None] * np.where(g >= 0.0, 1.0, -1.0) / linf
            sg = float((x * x).sum(axis=1).mean())
            ratio = math.log10(max(sg, 1e-300) / max(gd, 1e-300))
            rows.append([float(lams[li]), float(thetas[ti]), l2, linf, linf / (d * l2), gd, sg, ratio])
    return rows


def analyze_reference(a: np.ndarray) -> dict:
    absa = np.abs(a)
    return {
        "d": a.shape[0],
        "L2": float(np.abs(np.linalg.eigvalsh(a)).max()),
        "Linf": linf_bruteforce(a),
        "rho_diag": float(np.trace(absa) / absa.sum()),
        "trace": float(np.trace(a)),
        "lsep_rowsum": float(absa.sum()),
    }


def run_reference(cfg: dict) -> dict:
    """First-row values and shape expectations of one ``run`` config."""
    (family, spec), = cfg["problem"].items()
    d = spec["d"]
    x0 = np.random.default_rng(cfg["x0_seed"]).standard_normal(d)
    if family == "quadratic":
        S = skew_generator(d, np.random.default_rng(spec["seed"]))
        h = rotated_quadratic(d, spec["lambda_max"], spec["theta"], S)
        f0 = 0.5 * float(x0 @ h @ x0)
    else:
        half = np.sinh(0.5 * x0)
        f0 = 2.0 * float(half @ half)
    method = cfg["optimizer"]["method"]
    stop_tol = {"nsd": NSD_STATIONARY_TOL, "relaxed_nsd": cfg["optimizer"].get("eps")}.get(method)
    deterministic = family == "quadratic" and spec.get("sigma", 0.0) == 0.0
    return {
        "T": cfg["T"],
        "f0": f0,
        "dist0": float(x0 @ x0),
        "stop_tol": stop_tol,
        "monotone": deterministic and method in ("gd", "signgd_normscaled"),
    }


# --------------------------------------------------------------------- checks

def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _csv_body(text: str, header: str, ncols: int) -> tuple[np.ndarray | None, list[str]]:
    if not text.endswith("\n"):
        return None, ["output does not end with a newline"]
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != header:
        return None, [f"header is not {header!r}"]
    try:
        body = np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)
    except ValueError as exc:
        return None, [f"unparsable CSV body: {exc}"]
    if body.shape[0] != len(lines) - 1 or body.shape[1] != ncols:
        return None, [f"CSV body has shape {body.shape}, expected {ncols} columns"]
    if not np.isfinite(body).all():
        return None, ["non-finite value in output"]
    return body, []


def check_grid(text: str, ref: list[list[float]]) -> list[str]:
    """Compare a quadgrid CSV with the reference rows.

    A mean below ``ROUNDING_LEVEL`` in both the output and the reference is
    rounding noise and is not compared further.  The log ratio is compared
    when neither reference mean is at rounding level, only by its sign when
    one is, and not at all when both are.
    """
    body, problems = _csv_body(text, GRID_HEADER, 8)
    if body is None:
        return problems
    if body.shape[0] != len(ref):
        return [f"{body.shape[0]} grid rows, expected {len(ref)}"]
    for got, want in zip(body.tolist(), ref):
        cell = f"cell (lambda_max={want[0]:g}, theta={want[1]:g})"
        if got[:2] != want[:2]:
            problems.append(f"{cell}: axis values {got[:2]}")
            continue
        for name, i in (("L2", 2), ("Linf", 3), ("ratio_smoothness", 4)):
            if not _close(got[i], want[i], REL_TOL):
                problems.append(f"{cell}: {name} {got[i]!r} != reference {want[i]!r}")
        low = [w <= ROUNDING_LEVEL for w in want[5:7]]
        for name, i in (("mean_dist_gd", 5), ("mean_dist_signgd", 6)):
            both_low = got[i] <= ROUNDING_LEVEL and want[i] <= ROUNDING_LEVEL
            if got[i] < 0.0 or not (both_low or _close(got[i], want[i], DIST_REL_TOL)):
                problems.append(f"{cell}: {name} {got[i]!r} != reference {want[i]!r}")
        if not any(low):
            if abs(got[7] - want[7]) > LOG_RATIO_ABS_TOL:
                problems.append(f"{cell}: log10_perf_ratio {got[7]!r} != reference {want[7]!r}")
        elif not all(low) and (got[7] > 0.0) != (want[7] > 0.0):
            problems.append(f"{cell}: log10_perf_ratio {got[7]!r} has the wrong sign")
    return problems


def check_analyze(text: str, ref: dict) -> list[str]:
    """Compare an analyze report with the reference and the bound sandwich."""
    if text.count("\n") != 1 or not text.endswith("\n"):
        return ["analyze output is not exactly one line"]
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"analyze output is not JSON: {exc}"]
    if tuple(rep) != ANALYZE_KEYS:
        return [f"analyze keys {list(rep)}, expected {list(ANALYZE_KEYS)}"]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in rep.values()):
        return ["non-finite value in analyze output"]
    problems = []
    expected = {
        "L2": ref["L2"],
        "Linf_exact": ref["Linf"],
        "rho_diag": ref["rho_diag"],
        "bound_psd": ref["trace"] / ref["rho_diag"],
        "lsep_rowsum": ref["lsep_rowsum"],
        "ratio_dL2_over_Linf": ref["d"] * ref["L2"] / ref["Linf"],
    }
    for key, want in expected.items():
        if not _close(rep[key], want, REL_TOL):
            problems.append(f"{key} {rep[key]!r} != reference {want!r}")
    linf = rep["Linf_exact"]
    slack = 1.0 + REL_TOL
    chain = [("lower_bound", rep["lower_bound"], linf)]
    chain += [(k, linf, rep[k]) for k in ("bound_psd", "bound_sym", "lsep_rowsum")]
    for key, small, big in chain:
        if small > big * slack:
            problems.append(f"bound sandwich broken at {key}: {small!r} > {big!r}")
    return problems


def check_run(text: str, ref: dict) -> list[str]:
    """Row count, finiteness, first row, and monotone f where it must hold."""
    body, problems = _csv_body(text, TRACE_HEADER, 4)
    if body is None:
        return problems
    n = body.shape[0]
    if not np.array_equal(body[:, 0], np.arange(n)):
        problems.append("column t is not 0, 1, 2, ...")
    stopped_early = ref["stop_tol"] is not None and 1 <= n <= ref["T"] and body[-1, 2] <= ref["stop_tol"]
    if n != ref["T"] + 1 and not stopped_early:
        problems.append(f"{n} rows, expected {ref['T'] + 1}")
    if not _close(body[0, 1], ref["f0"], REL_TOL):
        problems.append(f"f at t=0 is {body[0, 1]!r}, reference {ref['f0']!r}")
    if not _close(body[0, 3], ref["dist0"], REL_TOL):
        problems.append(f"dist_sq at t=0 is {body[0, 3]!r}, reference {ref['dist0']!r}")
    if ref["monotone"]:
        f = body[:, 1]
        up = np.flatnonzero(f[1:] > f[:-1] * (1.0 + MONOTONE_REL_SLACK))
        if up.size:
            problems.append(f"f increases at t={int(up[0]) + 1}")
    return problems

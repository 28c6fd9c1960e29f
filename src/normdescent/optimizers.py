"""Iterative methods driven by gradient oracles, with per-step traces.

The steepest-descent family shares one template, x <- x - P(grad)/L, where
P is the direction operator of the chosen geometry (see norms.steepest_op).
Normalized variants divide the direction by the dual gradient norm;
the soft-normalized variant divides by 5*L0 + 4*L1*||grad||* so that it
reverts to plain steepest descent near stationary points.  The
moving-average family implements sign-times-magnitude updates with
shuffled and averaged magnitude variants.

Every run_* method is an update rule handed to one step loop, which
records per iterate the objective value, the dual gradient norm in the
run's geometry, and the squared Euclidean distance to the origin, the
optimum of both problem families.  The batched steepest descent advances
a (K, R, d) stack of starting points at once, each of the K slices with
its own step size, and records nothing but the final iterates and each
slice's divergence.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import readonly, record
from .norms import (
    BlockMax, BlockPartition, Euclidean, Max, NormKind, _check, _row_dots, _signed,
)
from .problems import Oracle, OverflowGuardError

__all__ = [
    "Trace",
    "DivergenceError",
    "AdamConfig",
    "RateCheck",
    "BatchOracle",
    "run_steepest_descent",
    "steepest_descent_stack",
    "run_normalized_sd",
    "run_relaxed_nsd",
    "run_signsgd",
    "adam_gamma",
    "run_adam_family",
    "verify_rate_bounds",
    "F_BLOWUP",
    "STATIONARY_TOL",
]

F_BLOWUP = 1e12
STATIONARY_TOL = 1e-14
ROW_CHUNK = 1024  # trace rows the step loop holds before it reduces them
_NON_FINITE = "non-finite objective or gradient"  # the divergence reasons of both step loops


def _exceeded(f, limit) -> str:
    return f"objective {f:.3e} exceeded {limit:.4g}"


# A batched oracle maps a (K, R, d) stack of iterates, one per row, to the
# per-row objective values (shape (K, R)) and gradients (shape (K, R, d)).
BatchOracle = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@record
class Trace:
    """Per-iteration record of a run; arrays have one row per iterate.

    ``dist_sq`` is the squared Euclidean distance to the origin.  A run
    that stops on a dual-norm threshold stops at its last row.
    """

    f: np.ndarray
    dual_grad_norm: np.ndarray
    dist_sq: np.ndarray
    x_final: np.ndarray

    def __len__(self) -> int:
        return self.f.size


class DivergenceError(RuntimeError):
    """A run produced a non-finite value or exceeded its blow-up limit.

    Carries the step index, the reason, and the partial trace of all finite
    iterates recorded before the abort (including the over-threshold one,
    when it is finite).  ``trace`` is None when the run kept no trace, as
    for a cell of quadgrid's stacked runs (see experiments.run_quad_grid).
    """

    def __init__(self, step: int, trace: Trace | None, reason: str):
        super().__init__(f"divergence at step {step}: {reason}")
        self.step = step
        self.trace = trace
        self.reason = reason


def _start(x0) -> np.ndarray:
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise ValueError("initial point must be a finite vector")
    return x


def _drive(
    oracle: Oracle,
    x0,
    T: int,
    kind: NormKind,
    update: Callable,
    stop_tol: float | None = None,
) -> Trace:
    """The step loop of the run_* methods.

    The steps run in chunks of ROW_CHUNK rows, and each chunk is filled,
    judged, then acted on.

    Fill: step t calls the oracle and fills the chunk's next row with f_t,
    g_t and x_t.  With ``stop_tol``, it computes dual = ||g_t||* in
    ``kind``, and the run ends once that is at most ``stop_tol``; it also
    ends at t = T.  Otherwise x_{t+1} = update(x_t, g_t, t, dual), dual
    being None without ``stop_tol`` and g_t the row view of the gradient
    buffer; updates return new arrays, so no iterate handed to the oracle
    changes.  Filling stops when the chunk is full, when the run ends, or
    when a call raises an Exception, which is kept; a step checks nothing.

    Judge: the filled rows are checked once, and the earliest failing row
    aborts the run: a non-finite value or gradient at step t with rows
    0..t-1, a value above F_BLOWUP * max(1, f_0) with rows 0..t (so never
    at step 0).

    Act: a kept OverflowGuardError of the oracle at step t aborts the run
    with rows 0..t-1, and another kept exception propagates unchanged; a
    run that ended returns its trace, and a full chunk's rows are reduced
    to the trace's parts and the next chunk reuses them.  So a run
    diverging at step t may compute the rest of t's chunk first, with
    numpy's warnings off, and reports exactly what a loop checking every
    step reports.

    A trace's dual norms and squared distances to the origin are reduced
    per chunk, so a run holds three floats per step.  Each row reduces on
    its own, so the result does not depend on where the chunks split, and
    a row's dual norm has the bits of the dual a stopping run computed for
    it.

    ``kind`` and the dimension are checked once, before the loop; the
    kind's methods check nothing.  The chunks' dual norms are its
    ``dual_rows`` of their gradient rows, and dual (a Python float) is its
    ``dual_rows`` of step t's row alone.  Each steepest-descent update rule
    is one call of its ``step``, P(g)/c.  Per-step array operands of the
    update rules are 0-d arrays: a numpy call with one is cheaper than
    with a Python float, and rounds the same.
    """
    if T < 0:
        raise ValueError("the number of steps must be nonnegative")
    x = _start(x0)
    _check(kind, x.size)
    dual_rows = kind.dual_rows
    rows = min(T + 1, ROW_CHUNK)
    F = np.empty(rows)
    X = np.empty((rows, x.size))
    G = np.empty((rows, x.size))
    parts: tuple[list[np.ndarray], ...] = ([], [], [])  # each reduced chunk's part of f, dual, dist

    def trace(n: int, x: np.ndarray | None = None) -> Trace | None:
        """Reduces the chunk's first n rows into the parts; given x, the trace ending at x."""
        for part, column in zip(parts, (F[:n].copy(), dual_rows(G[:n]), _row_dots(X[:n], X[:n]))):
            part.append(column)
        if x is not None:
            columns = []
            for part in parts:
                columns.append(readonly(np.concatenate(part)))
                part.clear()  # frees a column's parts before the next column is joined
            return Trace(*columns, readonly(x.copy()))

    dual = None
    end = T  # the run's last step: T, or the first whose dual is at most stop_tol
    with np.errstate(all="ignore"):  # the steps after a failing row are never reported
        for start in range(0, T + 1, rows):
            n, kept = 0, None
            try:  # fill: row n holds step start + n
                for t in range(start, min(start + rows, T + 1)):
                    F[n], G[n] = oracle(x)
                    X[n] = x
                    n += 1
                    if stop_tol is not None:
                        dual = float(dual_rows(G[n - 1 : n])[0])
                        if dual <= stop_tol:
                            end = t
                    if t == end:
                        break
                    x = update(x, G[n - 1], t, dual)
            except Exception as exc:  # kept until the rows before it are judged
                kept = exc
            # judge: the earliest failing row of the n filled rows aborts the run
            if start == 0:
                limit = F_BLOWUP * max(1.0, float(F[0]))
            bad = ~(np.isfinite(F[:n]) & np.isfinite(G[:n]).all(axis=1))
            failing = bad | (F[:n] > limit)  # f_0 never exceeds its own limit
            if failing.any():
                i = int(failing.argmax())
                if bad[i]:
                    raise DivergenceError(start + i, trace(i, X[i]), _NON_FINITE)
                raise DivergenceError(start + i, trace(i + 1, X[i]), _exceeded(F[i], limit))
            # act: on a kept exception, at the run's end, or with a full chunk
            if isinstance(kept, OverflowGuardError):
                raise DivergenceError(start + n, trace(n, x), str(kept)) from kept
            if kept is not None:
                raise kept
            if t == end:
                return trace(n, x)
            trace(rows)


def run_steepest_descent(
    oracle: Oracle,
    kind: NormKind,
    L: float,
    x0,
    T: int,
) -> Trace:
    """Steepest descent with a constant step: x <- x - P(grad)/L for T steps."""
    if not 0.0 < L < math.inf:
        raise ValueError("smoothness constant must be positive and finite")
    _check(kind)
    step, L = kind.step, np.array(L, dtype=float)

    def update(x, g, t, _):
        return x - step(g, L)

    return _drive(oracle, x0, T, kind, update)


def steepest_descent_stack(
    oracle: BatchOracle,
    kind: NormKind,
    L,
    X0,
    T: int,
) -> tuple[np.ndarray, list[tuple[int, str] | None]]:
    """Steepest descent with constant steps on a stack of independent batches.

    X0 has shape (K, R, d), and L one positive constant per slice; the
    oracle maps (K, R, d) iterates to (K, R) values and (K, R, d)
    gradients.  Every row of slice k follows x <- x - P(grad)/L[k] for T
    steps, exactly as in run_steepest_descent.  At every step t = 0..T
    each live slice is checked for a non-finite value or gradient, then
    for a row above its limit F_BLOWUP * max(1, f_0), the reason naming
    the largest such value.  A failing slice does not raise: its first
    (t, reason) is recorded, and the slice is zeroed and frozen, so no
    later step computes with its values.  Returns the final (K, R, d)
    iterates, zero in failed slices, and per slice its (t, reason) or
    None.  Only the Euclidean and max geometries are supported.
    """
    if not isinstance(kind, (Euclidean, Max)):
        raise TypeError(f"batched steepest descent supports Euclidean and Max, got {kind!r}")
    step = kind.step
    L = np.array(L, dtype=float)
    if L.ndim != 1 or not ((L > 0.0) & (L < math.inf)).all():
        raise ValueError("smoothness constant must be positive and finite")
    X = np.array(X0, dtype=float)
    if X.ndim != 3 or X.shape[0] != L.size or not np.isfinite(X).all():
        raise ValueError("initial points must be a finite (K, R, d) array, one slice per constant")
    L = L[:, None, None]
    failures: list[tuple[int, str] | None] = [None] * L.size
    live = np.ones(L.size, dtype=bool)
    keep = None  # (K, 1, 1) mask of the live slices once one has failed
    for t in range(T + 1):
        F, G = oracle(X)
        if t == 0:
            limit = F_BLOWUP * np.maximum(F, 1.0)  # per row
        finite = np.isfinite(F).all(axis=1) & np.isfinite(G).all(axis=(1, 2))
        failed = live & ~(finite & (F <= limit).all(axis=1))
        if failed.any():
            for k in np.flatnonzero(failed):
                r = np.argmax(np.where(F[k] > limit[k], F[k], -math.inf))  # the largest value over its limit
                failures[k] = (t, _exceeded(F[k, r], limit[k, r]) if finite[k] else _NON_FINITE)
            live &= ~failed
            keep = live[:, None, None]
            X = np.where(keep, X, 0.0)
            if not live.any():
                break
        if t == T:
            break
        if keep is not None:
            G = np.where(keep, G, 0.0)
        X = X - step(G, L)
    return X, failures


def run_normalized_sd(
    oracle: Oracle,
    kind: NormKind,
    L: float,
    x0,
    T: int,
) -> Trace:
    """Normalized steepest descent with the decreasing schedule 1/sqrt(t+1).

    Update: x <- x - (alpha_t / L) * P(grad) / ||grad||*.  In the max-norm
    geometry P(grad)/||grad||* is exactly the sign vector, so this is sign
    descent with step alpha_t / L.  Stops early once the dual gradient norm
    falls to 1e-14, where the normalized direction is no longer defined.
    """
    if not 0.0 < L < math.inf:
        raise ValueError("smoothness constant must be positive and finite")
    _check(kind)
    step = kind.step

    def update(x, g, t, dual):
        return x - step(g, dual, dual) * np.array(1.0 / math.sqrt(t + 1.0) / L)

    return _drive(oracle, x0, T, kind, update, stop_tol=STATIONARY_TOL)


def run_relaxed_nsd(
    oracle: Oracle,
    kind: NormKind,
    L0: float,
    L1: float,
    x0,
    T: int,
    eps: float,
) -> Trace:
    """Soft-normalized steepest descent for gradient-growing curvature.

    Update: x <- x - P(grad) / (5*L0 + 4*L1*||grad||*).  Runs until the dual
    gradient norm reaches eps, at the trace's last row, or T steps elapse.
    With L1 = 0 this is steepest descent with constant 5*L0.
    """
    if not 0.0 < L0 < math.inf:
        raise ValueError("L0 must be positive and finite")
    if not 0.0 <= L1 < math.inf:
        raise ValueError("L1 must be nonnegative and finite")
    if not eps > 0.0:
        raise ValueError("stationarity threshold must be positive")
    _check(kind)
    step = kind.step

    def update(x, g, t, dual):
        return x - step(g, 5.0 * L0 + 4.0 * L1 * dual, dual)

    return _drive(oracle, x0, T, kind, update, stop_tol=eps)


def run_signsgd(
    oracle: Oracle,
    step: float | None,
    x0,
    T: int,
) -> Trace:
    """Sign descent on (possibly stochastic) gradients: x <- x - alpha_t sign(g).

    alpha_t is the constant ``step``, a positive finite float, or
    1/sqrt(t + 1) when ``step`` is None.  The trace records the one-norm of
    the oracle's gradient (the dual norm of the max geometry); for
    stochastic oracles this is the norm of the sampled estimate.
    """
    if step is not None and not 0.0 < step < math.inf:
        raise ValueError("constant step size must be positive and finite")
    alpha = None if step is None else np.array(step, dtype=float)

    def update(x, g, t, _):
        a = alpha if alpha is not None else np.array(1.0 / math.sqrt(t + 1.0))
        return x - _signed(a, g)

    return _drive(oracle, x0, T, Max(), update)


def adam_gamma(m, v, epsilon: float) -> np.ndarray:
    """Magnitude factors |m| / (sqrt(v) + epsilon) of the moving-average update.

    The update direction m / (sqrt(v) + epsilon) factors exactly into these
    nonnegative magnitudes times sign(m).
    """
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    if (v < 0.0).any():
        raise ValueError("second-moment entries must be nonnegative")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon == 0.0 and (v == 0.0).any():
        raise ValueError("degenerate input: zero second moment with epsilon = 0")
    return np.abs(m) / (np.sqrt(v) + epsilon)


_ADAM_VARIANTS = ("standard", "shuffled", "averaged", "momentum_sign")


@record
class AdamConfig:
    """Moving-average method configuration.

    Variants: ``standard`` updates by m/(sqrt(v)+eps); ``shuffled`` permutes
    the magnitude factors within each block before multiplying by sign(m);
    ``averaged`` replaces them by their block mean; ``momentum_sign`` drops
    them entirely.  ``blocks`` scopes the shuffle/average (whole vector when
    None).  No bias correction is applied; m and v start at zero.
    """

    step: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    variant: str = "standard"
    blocks: BlockPartition | None = None

    def __post_init__(self):
        if not 0.0 < self.step < math.inf:
            raise ValueError("step size must be positive and finite")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be nonnegative and finite")
        if self.variant not in _ADAM_VARIANTS:
            raise ValueError(f"variant must be one of {_ADAM_VARIANTS}, got {self.variant!r}")


def run_adam_family(
    oracle: Oracle,
    cfg: AdamConfig,
    x0,
    T: int,
    rng: np.random.Generator,
) -> Trace:
    """Moving-average methods: m_t, v_t recursions plus the variant update.

    m <- beta1 m + (1 - beta1) g and v <- beta2 v + (1 - beta2) g^2, followed
    by the configured update (see AdamConfig).  Shuffles draw one fresh
    permutation per block per step from ``rng``.  The trace records the
    one-norm of the gradient.
    """
    x = _start(x0)
    d = x.size
    if cfg.blocks is not None:
        _check(BlockMax(cfg.blocks), d)
    index = cfg.blocks.index if cfg.blocks is not None else (slice(None),)
    variant = cfg.variant
    check_zero = cfg.epsilon == 0.0  # AdamConfig has checked eps >= 0, and v is never negative
    b1, c1, b2, c2, step, eps = (
        np.array(c) for c in
        (cfg.beta1, 1.0 - cfg.beta1, cfg.beta2, 1.0 - cfg.beta2, cfg.step, cfg.epsilon)
    )
    m = np.zeros(d)
    v = np.zeros(d)

    def update(x, g, t, _):
        nonlocal m, v
        m = b1 * m + c1 * g
        if variant == "momentum_sign":
            return x - _signed(step, m)
        v = b2 * v + c2 * g * g
        if check_zero and (v == 0.0).any():
            raise ValueError("degenerate input: zero second moment with epsilon = 0")
        scale = np.sqrt(v) + eps
        if variant == "standard":
            return x - step * (m / scale)
        gamma = np.abs(m) / scale  # adam_gamma(m, v, eps); rewritten block by block
        for idx in index:
            seg = gamma[idx]  # a view of gamma when idx is a slice
            if variant == "shuffled":
                rng.shuffle(seg)  # the swaps, and the draws, of rng.permutation(seg.size)
                if isinstance(idx, slice):
                    continue  # seg shuffled gamma itself
            else:
                seg = np.add.reduce(seg) / seg.size  # the bits of seg.mean()
            gamma[idx] = seg
        return x - step * _signed(gamma, m)

    return _drive(oracle, x, T, Max(), update)


_SLACK_TOL = 1e-9  # the floating-point allowance of RateCheck.passed


@record
class RateCheck:
    """Worst relative slack of each guarantee over all trace prefixes.

    Slack is (bound - value) / max(|bound|, |value|); nonnegative means the
    guarantee held.  ``passed`` allows a slack down to -1e-9, for rounding.
    """

    smooth_slack: float
    pl_slack: float | None = None
    kelner_slack: float | None = None

    @property
    def passed(self) -> bool:
        slacks = [self.smooth_slack, self.pl_slack, self.kelner_slack]
        return all(s >= -_SLACK_TOL for s in slacks if s is not None)


def _worst_rel_slack(values: np.ndarray, bounds: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(bounds), np.abs(values)), 1e-300)
    return float(((bounds - values) / scale).min())


def verify_rate_bounds(
    trace: Trace,
    L: float,
    f_star: float,
    mu: float | None = None,
    radius: float | None = None,
) -> RateCheck:
    """Check the convergence guarantees of a steepest-descent trace.

    For every prefix length T' from 1 to the trace length:

    * stationarity: mean over t < T' of ||grad_t||*^2  <=  2 L (f_0 - f*) / T'
    * linear rate (when ``mu`` is given): f_T' - f* <= (1 - mu/L)^T' (f_0 - f*)
    * convex rate (when ``radius`` is given): f_T' - f* <= 2 L radius^2 / (T' + 4)

    ``radius`` must be a valid bound on the initial-sublevel-set distance to
    the optimum in the run's geometry; a Euclidean radius is valid for the
    Euclidean and max geometries.  Violations are reported via negative
    slack, never raised.
    """
    if not L > 0.0:
        raise ValueError("smoothness constant must be positive")
    n = len(trace)
    if n < 2:
        raise ValueError("trace must contain at least one step")
    f = trace.f
    dual = trace.dual_grad_norm
    gap0 = f[0] - f_star
    t = np.arange(1, n, dtype=float)

    mean_sq = np.cumsum(dual[:-1] ** 2) / t
    smooth_slack = _worst_rel_slack(mean_sq, 2.0 * L * gap0 / t)

    pl_slack = None
    if mu is not None:
        if not 0.0 < mu <= L:
            raise ValueError("the linear-rate constant must satisfy 0 < mu <= L")
        pl_slack = _worst_rel_slack(f[1:] - f_star, (1.0 - mu / L) ** t * gap0)

    kelner_slack = None
    if radius is not None:
        if radius < 0.0:
            raise ValueError("radius must be nonnegative")
        kelner_slack = _worst_rel_slack(f[1:] - f_star, 2.0 * L * radius**2 / (t + 4.0))

    return RateCheck(smooth_slack, pl_slack, kelner_slack)

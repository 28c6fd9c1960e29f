"""Iterative methods driven by gradient oracles, with per-step traces.

The steepest-descent family shares one template, x <- x - P(grad)/L, where
P is the direction operator of the chosen geometry (see norms.steepest_op).
Normalized variants divide the direction by the dual gradient norm;
the soft-normalized variant divides by 5*L0 + 4*L1*||grad||* so that it
reverts to plain steepest descent near stationary points.  The
moving-average family implements sign-times-magnitude updates with
shuffled and averaged magnitude variants.

Every run records, per iterate: the objective value, the dual gradient norm
in the run's geometry, and (when the optimum is known) the squared
Euclidean distance to it.  The batched steepest-descent driver advances
many starting points at once and records nothing but the final iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .norms import BlockPartition, Euclidean, Max, NormKind, dual_norm, sign_unit, steepest_op
from .problems import Oracle, OverflowGuardError

__all__ = [
    "Trace",
    "DivergenceError",
    "Constant",
    "InvSqrt",
    "StepSchedule",
    "schedule_value",
    "AdamConfig",
    "RateCheck",
    "BatchOracle",
    "run_steepest_descent",
    "steepest_descent_batch",
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

# A batched oracle maps an (R, d) array of iterates, one per row, to the
# per-row objective values (shape (R,)) and gradients (shape (R, d)).
BatchOracle = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class Trace:
    """Per-iteration record of a run; arrays have one row per iterate.

    ``dist_sq`` is the squared Euclidean distance to the known optimum and
    is None when no optimum was supplied.  ``hit_index`` marks the first
    iterate whose dual gradient norm reached a requested threshold (set by
    the soft-normalized runner only).
    """

    f: np.ndarray
    dual_grad_norm: np.ndarray
    dist_sq: np.ndarray | None
    x_final: np.ndarray
    hit_index: int | None = None

    def __len__(self) -> int:
        return self.f.size


class DivergenceError(RuntimeError):
    """A run produced a non-finite value or exceeded the blow-up threshold.

    Carries the step index, the reason, and the partial trace of all finite
    iterates recorded before the abort (including the over-threshold one,
    when it is finite).  ``trace`` is None when the run kept no trace, as in
    steepest_descent_batch.
    """

    def __init__(self, step: int, trace: Trace | None, reason: str):
        super().__init__(f"divergence at step {step}: {reason}")
        self.step = step
        self.trace = trace
        self.reason = reason


@dataclass(frozen=True)
class Constant:
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("constant step size must be positive")


@dataclass(frozen=True)
class InvSqrt:
    """alpha_t = 1/sqrt(t + 1)."""


StepSchedule = Union[Constant, InvSqrt]


def schedule_value(schedule: StepSchedule, t: int) -> float:
    if isinstance(schedule, Constant):
        return schedule.alpha
    if isinstance(schedule, InvSqrt):
        return 1.0 / math.sqrt(t + 1.0)
    raise TypeError(f"unknown step schedule: {schedule!r}")


class _Recorder:
    """Accumulates per-iterate rows and assembles the Trace."""

    def __init__(self, x_star):
        self.f: list[float] = []
        self.dual: list[float] = []
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        self.dist: list[float] | None = None if x_star is None else []

    def add(self, x: np.ndarray, f: float, dual: float) -> None:
        self.f.append(f)
        self.dual.append(dual)
        if self.dist is not None:
            delta = x - self.x_star
            self.dist.append(float(np.dot(delta, delta)))

    def trace(self, x: np.ndarray, hit_index: int | None = None) -> Trace:
        def frozen(values):
            a = np.array(values)
            a.flags.writeable = False
            return a

        dist = None if self.dist is None else frozen(self.dist)
        return Trace(frozen(self.f), frozen(self.dual), dist, frozen(x.copy()), hit_index)


def _step_eval(oracle: Oracle, x: np.ndarray, t: int, rec: _Recorder):
    """Evaluate the oracle, guarding against divergence.

    Non-finite values, and an iterate beyond the oracle's overflow guard,
    abort with the rows recorded so far; a finite value above the blow-up
    threshold is recorded first and then aborts.
    """
    try:
        f, g = oracle(x)
    except OverflowGuardError as exc:
        raise DivergenceError(t, rec.trace(x), str(exc)) from exc
    f = float(f)
    g = np.asarray(g, dtype=float)
    if not math.isfinite(f) or not np.isfinite(g).all():
        raise DivergenceError(t, rec.trace(x), "non-finite objective or gradient")
    return f, g


def _check_blowup(f: float, x: np.ndarray, t: int, rec: _Recorder) -> None:
    if f > F_BLOWUP:
        raise DivergenceError(t, rec.trace(x), f"objective {f:.3e} exceeded {F_BLOWUP:.0e}")


def _start(x0) -> np.ndarray:
    x = np.array(x0, dtype=float)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise ValueError("initial point must be a finite vector")
    return x


def run_steepest_descent(
    oracle: Oracle,
    kind: NormKind,
    L: float,
    x0,
    T: int,
    x_star=None,
) -> Trace:
    """Constant-step steepest descent: x <- x - P(grad)/L for T steps."""
    if not L > 0.0:
        raise ValueError("smoothness constant must be positive")
    x = _start(x0)
    rec = _Recorder(x_star)
    for t in range(T + 1):
        f, g = _step_eval(oracle, x, t, rec)
        rec.add(x, f, dual_norm(g, kind))
        _check_blowup(f, x, t, rec)
        if t == T:
            break
        x = x - steepest_op(g, kind) / L
    return rec.trace(x)


def steepest_descent_batch(
    oracle: BatchOracle,
    kind: NormKind,
    L: float,
    X0,
    T: int,
) -> np.ndarray:
    """Constant-step steepest descent on every row of X0 at once.

    Each row follows x <- x - P(grad)/L for T steps, exactly as in
    run_steepest_descent, and the final (R, d) iterates are returned.  The
    same divergence checks run on every row at every step t = 0..T: a
    non-finite value or gradient, or a value above F_BLOWUP, raises
    DivergenceError (with ``trace`` None, since no per-row trace is kept).
    Only the Euclidean and max geometries are supported.
    """
    if not isinstance(kind, (Euclidean, Max)):
        raise TypeError(f"batched steepest descent supports Euclidean and Max, got {kind!r}")
    if not L > 0.0:
        raise ValueError("smoothness constant must be positive")
    X = np.array(X0, dtype=float)
    if X.ndim != 2 or not np.isfinite(X).all():
        raise ValueError("initial points must be a finite (R, d) array")
    for t in range(T + 1):
        F, G = oracle(X)
        if not (np.isfinite(F).all() and np.isfinite(G).all()):
            raise DivergenceError(t, None, "non-finite objective or gradient")
        if (F > F_BLOWUP).any():
            raise DivergenceError(t, None, f"objective {F.max():.3e} exceeded {F_BLOWUP:.0e}")
        if t == T:
            break
        if isinstance(kind, Max):
            G = np.abs(G).sum(axis=1, keepdims=True) * sign_unit(G)
        X = X - G / L
    return X


def run_normalized_sd(
    oracle: Oracle,
    kind: NormKind,
    L: float,
    x0,
    T: int,
    x_star=None,
) -> Trace:
    """Normalized steepest descent with the decreasing schedule 1/sqrt(t+1).

    Update: x <- x - (alpha_t / L) * P(grad) / ||grad||*.  In the max-norm
    geometry P(grad)/||grad||* is exactly the sign vector, so this is sign
    descent with step alpha_t / L.  Stops early once the dual gradient norm
    falls to 1e-14, where the normalized direction is no longer defined.
    """
    if not L > 0.0:
        raise ValueError("smoothness constant must be positive")
    x = _start(x0)
    rec = _Recorder(x_star)
    for t in range(T + 1):
        f, g = _step_eval(oracle, x, t, rec)
        dual = dual_norm(g, kind)
        rec.add(x, f, dual)
        _check_blowup(f, x, t, rec)
        if dual <= STATIONARY_TOL or t == T:
            break
        unit = steepest_op(g, kind) / dual
        x = x - unit * (schedule_value(InvSqrt(), t) / L)
    return rec.trace(x)


def run_relaxed_nsd(
    oracle: Oracle,
    kind: NormKind,
    L0: float,
    L1: float,
    x0,
    T: int,
    eps: float,
    x_star=None,
) -> Trace:
    """Soft-normalized steepest descent for gradient-growing curvature.

    Update: x <- x - P(grad) / (5*L0 + 4*L1*||grad||*).  Runs until the dual
    gradient norm reaches eps or T steps elapse; the first-hit iterate index
    is recorded on the trace.  With L1 = 0 this is steepest descent with
    constant 5*L0.
    """
    if not L0 > 0.0:
        raise ValueError("L0 must be positive")
    if L1 < 0.0:
        raise ValueError("L1 must be nonnegative")
    if not eps > 0.0:
        raise ValueError("stationarity threshold must be positive")
    x = _start(x0)
    rec = _Recorder(x_star)
    hit = None
    for t in range(T + 1):
        f, g = _step_eval(oracle, x, t, rec)
        dual = dual_norm(g, kind)
        rec.add(x, f, dual)
        _check_blowup(f, x, t, rec)
        if dual <= eps:
            hit = t
            break
        if t == T:
            break
        x = x - steepest_op(g, kind) / (5.0 * L0 + 4.0 * L1 * dual)
    return rec.trace(x, hit_index=hit)


def run_signsgd(
    oracle: Oracle,
    schedule: StepSchedule,
    x0,
    T: int,
    x_star=None,
) -> Trace:
    """Sign descent on (possibly stochastic) gradients: x <- x - alpha_t sign(g).

    The trace records the one-norm of the oracle's gradient (the dual norm
    of the max geometry); for stochastic oracles this is the norm of the
    sampled estimate.
    """
    x = _start(x0)
    rec = _Recorder(x_star)
    for t in range(T + 1):
        f, g = _step_eval(oracle, x, t, rec)
        rec.add(x, f, dual_norm(g, Max()))
        _check_blowup(f, x, t, rec)
        if t == T:
            break
        x = x - schedule_value(schedule, t) * sign_unit(g)
    return rec.trace(x)


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


@dataclass(frozen=True)
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
        if not self.step > 0.0:
            raise ValueError("step size must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")
        if self.variant not in _ADAM_VARIANTS:
            raise ValueError(f"variant must be one of {_ADAM_VARIANTS}, got {self.variant!r}")


def run_adam_family(
    oracle: Oracle,
    cfg: AdamConfig,
    x0,
    T: int,
    rng: np.random.Generator,
    x_star=None,
) -> Trace:
    """Moving-average methods: m_t, v_t recursions plus the variant update.

    m <- beta1 m + (1 - beta1) g and v <- beta2 v + (1 - beta2) g^2, followed
    by the configured update (see AdamConfig).  Shuffles draw one fresh
    permutation per block per step from ``rng``.  The trace records the
    one-norm of the gradient.
    """
    x = _start(x0)
    d = x.size
    if cfg.blocks is not None and cfg.blocks.dim != d:
        raise ValueError("partition does not match iterate dimension")
    blocks = cfg.blocks.blocks if cfg.blocks is not None else (tuple(range(d)),)
    m = np.zeros(d)
    v = np.zeros(d)
    rec = _Recorder(x_star)
    for t in range(T + 1):
        f, g = _step_eval(oracle, x, t, rec)
        rec.add(x, f, dual_norm(g, Max()))
        _check_blowup(f, x, t, rec)
        if t == T:
            break
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
        if cfg.variant == "standard":
            if cfg.epsilon == 0.0 and (v == 0.0).any():
                raise ValueError("degenerate input: zero second moment with epsilon = 0")
            delta = m / (np.sqrt(v) + cfg.epsilon)
        elif cfg.variant == "momentum_sign":
            delta = sign_unit(m)
        else:
            gamma = adam_gamma(m, v, cfg.epsilon)
            magnitude = np.empty(d)
            for b in blocks:
                idx = list(b)
                seg = gamma[idx]
                if cfg.variant == "shuffled":
                    magnitude[idx] = seg[rng.permutation(len(idx))]
                else:
                    magnitude[idx] = seg.mean()
            delta = magnitude * sign_unit(m)
        x = x - cfg.step * delta
    return rec.trace(x)


@dataclass(frozen=True)
class RateCheck:
    """Worst relative slack of each guarantee over all trace prefixes.

    Slack is (bound - value) / max(|bound|, |value|); nonnegative means the
    guarantee held.  ``passed`` allows the stated floating-point allowance.
    """

    smooth_slack: float
    pl_slack: float | None = None
    kelner_slack: float | None = None
    kind: NormKind | None = None
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        slacks = [self.smooth_slack, self.pl_slack, self.kelner_slack]
        return all(s >= -self.tol for s in slacks if s is not None)


def _worst_rel_slack(values: np.ndarray, bounds: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(bounds), np.abs(values)), 1e-300)
    return float(((bounds - values) / scale).min())


def verify_rate_bounds(
    trace: Trace,
    L: float,
    f_star: float,
    mu: float | None = None,
    radius: float | None = None,
    kind: NormKind | None = None,
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

    return RateCheck(smooth_slack, pl_slack, kelner_slack, kind)

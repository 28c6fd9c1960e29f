"""Paired quadratic benchmark grids: gradient descent vs norm-scaled sign descent.

Each cell's Hessian is the quadratic family of problems._QuadraticFamily,
spectrum (1, ..., 1, lambda_max) rotated by exp(theta * S), at the cell's
(lambda_max, theta).  One family per grid builds each theta's rotation
once and shares it by every lambda_max.  Both methods run from the same
batch of standard-normal starting points with their natural step sizes
(1/L2 and 1/Linf) and are compared by the mean squared Euclidean
distance to the optimum after T steps.

GridConfig checks every axis value by the family's rules before any cell
runs, and each group builds its cells once.  Per method, a group of
consecutive cells is one run of optimizers.steepest_descent_stack over a
(cells, repeats, d) stack, so the oracle is called T + 1 times per group
and method, not per cell.  A group holds as many cells as fit in a fixed
element budget, which bounds memory for large grids; the default grid is
one group.  Gradient noise (sigma > 0) comes from one seeded stream per
cell and method, which gives the cell's (repeats, d) noise of each oracle
call.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, Iterator, NamedTuple

import numpy as np

from ._record import record
from .analysis import smoothness_constant
from .norms import Euclidean, Max
from .optimizers import BatchOracle, DivergenceError, steepest_descent_stack
from .problems import _check_family, _noise_draws, _QuadraticFamily

__all__ = [
    "GridConfig",
    "GridCell",
    "cell_starts",
    "run_quad_grid",
]

_DIST_FLOOR = 1e-300  # keeps the log ratio finite when a method lands exactly on 0
_NOISE_SALT = 104729


@record
class GridConfig:
    """Axes and run parameters of a benchmark grid; the default axes are the paper's."""

    d: int
    lambda_max_values: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
    theta_values: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    T: int = 100
    repeats: int = 64
    skew_seed: int = 0
    x0_seed: int = 0
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lambda_max_values", tuple(float(v) for v in self.lambda_max_values))
        object.__setattr__(self, "theta_values", tuple(float(v) for v in self.theta_values))
        _check_family(self.d, self.lambda_max_values, self.theta_values)
        if not self.lambda_max_values or not self.theta_values:
            raise ValueError("value lists must be non-empty")
        for axis in ("lambda_max_values", "theta_values"):
            values = getattr(self, axis)
            if len(set(values)) < len(values):  # two rows would share one (lambda_max, theta)
                raise ValueError(f"{axis} holds a repeated value")
        if self.T < 1:
            raise ValueError("T must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be nonnegative and finite")
        if self.skew_seed < 0 or self.x0_seed < 0:
            raise ValueError("seeds must be nonnegative")


@record
class GridCell:
    """One grid row: smoothness constants and paired mean final distances."""

    lambda_max: float
    theta: float
    L2: float
    Linf: float
    ratio_smoothness: float
    mean_dist_gd: float
    mean_dist_signgd: float
    log10_perf_ratio: float


_STACK_BUDGET = 1 << 18  # float64 elements per stacked array: bounds cells per group and noise calls per draw
_METHODS = {"gd": Euclidean(), "signgd_normscaled": Max()}  # the grid's methods, in column order


class _CellSetup(NamedTuple):
    li: int
    ti: int
    lam: float
    theta: float
    H: np.ndarray
    L: tuple[float, ...]  # per method of _METHODS, its smoothness constant


def _cell_order(cfg: GridConfig) -> list[tuple[int, int]]:
    """Every cell's indices (li, ti) on the axes, ascending lambda_max, then theta."""
    lam_order = sorted(range(len(cfg.lambda_max_values)), key=cfg.lambda_max_values.__getitem__)
    theta_order = sorted(range(len(cfg.theta_values)), key=cfg.theta_values.__getitem__)
    return [(li, ti) for li in lam_order for ti in theta_order]


def cell_starts(cfg: GridConfig) -> Iterator[tuple[int, int, np.ndarray]]:
    """Every cell in output order: its indices (li, ti) on the axes and its
    (repeats, d) starting points, shared by both methods, drawn from
    default_rng([x0_seed, li, ti]) when the iteration reaches the cell."""
    for li, ti in _cell_order(cfg):
        yield li, ti, np.random.default_rng([cfg.x0_seed, li, ti]).standard_normal((cfg.repeats, cfg.d))


def _run_cell(cfg: GridConfig, family: _QuadraticFamily, li: int, ti: int) -> _CellSetup:
    """One cell's Hessian, the family at its lambda_max and theta, and each
    method's smoothness constant of it.  perfbench/layertrace.py times this
    function by name as the per-cell cost of a grid."""
    lam, theta = cfg.lambda_max_values[li], cfg.theta_values[ti]
    H = family(lam, theta)
    L = tuple(smoothness_constant(H, kind) for kind in _METHODS.values())
    return _CellSetup(li, ti, lam, theta, H.to_array(), L)


def _stack_oracle(H: np.ndarray, noise) -> BatchOracle:
    """Exact values x'Hx/2 and gradients Hx of every row of every slice,
    with slice k using H[k], plus slice k's next draw of noise[k] unless
    ``noise`` is None."""

    def oracle(X):
        G = X @ H
        F = 0.5 * np.einsum("kij,kij->ki", X, G)
        if noise is not None:
            G = G + np.stack([next(draws) for draws in noise])
        return F, G

    return oracle


def _run_group(cfg: GridConfig, group: list[_CellSetup], X0: np.ndarray):
    """Each method of _METHODS on a group of cells from X0, as one stacked
    run on the cells' Hessians.  Returns per method the (K, R) final squared
    distances and the per-cell failures.  With sigma > 0, each cell and
    method draws its (R, d) noise of each call from one seeded stream,
    ``block`` calls ahead: a method's drawn noise holds at most
    _STACK_BUDGET elements, or one call's."""
    H = np.stack([c.H for c in group])
    block = max(1, min(cfg.T + 1, _STACK_BUDGET // X0.size))
    out = []
    for mi, kind in enumerate(_METHODS.values()):
        noise = None
        if cfg.sigma > 0.0:
            noise = [_noise_draws(np.random.default_rng([cfg.x0_seed, _NOISE_SALT, c.li, c.ti, mi]),
                                  cfg.sigma, X0.shape[1:], block) for c in group]
        L = [c.L[mi] for c in group]
        X, failures = steepest_descent_stack(_stack_oracle(H, noise), kind, L, X0, cfg.T)
        out.append((np.einsum("kij,kij->ki", X, X), failures))
    return out


def run_quad_grid(
    cfg: GridConfig,
    progress: Callable[[GridCell], None] | None = None,
) -> list[GridCell]:
    """All grid cells in the order of cell_starts.

    Cells advance in consecutive groups, all cells of a group together (see
    steepest_descent_stack); a group holds as many cells as fit in
    _STACK_BUDGET, at least one, and builds them with _run_cell.  ``progress`` is
    called with each cell once its group has finished, so a caller keeps
    the finished cells when a later one raises DivergenceError: the first
    diverging cell in output order, its methods in _METHODS order.
    """
    family = _QuadraticFamily(cfg.d, cfg.skew_seed)
    order = _cell_order(cfg)
    size = max(1, _STACK_BUDGET // (cfg.d * (cfg.repeats + cfg.d)))  # a cell: x0 and H
    starts = cell_starts(cfg)
    cells = []
    for start in range(0, len(order), size):
        group = [_run_cell(cfg, family, li, ti) for li, ti in order[start:start + size]]
        X0 = np.stack([x0 for _, _, x0 in islice(starts, len(group))])
        results = _run_group(cfg, group, X0)
        for k, c in enumerate(group):
            for method, (_, failures) in zip(_METHODS, results):
                if failures[k] is not None:
                    step, reason = failures[k]
                    where = f"cell lambda_max={c.lam:g} theta={c.theta:g}, method {method}"
                    raise DivergenceError(step, None, f"{reason} ({where})")
            L2, linf = c.L
            mean_gd, mean_sg = (float(dist[k].mean()) for dist, _ in results)
            log_ratio = math.log10(max(mean_sg, _DIST_FLOOR) / max(mean_gd, _DIST_FLOOR))
            cell = GridCell(c.lam, c.theta, L2, linf, linf / (cfg.d * L2), mean_gd, mean_sg, log_ratio)
            if progress is not None:
                progress(cell)
            cells.append(cell)
    return cells

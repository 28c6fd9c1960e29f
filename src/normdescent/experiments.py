"""Paired quadratic benchmark grids: gradient descent vs norm-scaled sign descent.

Each grid cell is a quadratic with spectrum (1, ..., 1, lambda_max) rotated
by theta along one shared random path; each theta's rotation is built once
and shared by every lambda_max.  Both methods run from the same
batch of standard-normal starting points with their natural step sizes
(1/L2 and 1/Linf) and are compared by the mean squared Euclidean distance
to the optimum after T steps.

The cells advance together: per method, a group of consecutive cells is
one run of optimizers.steepest_descent_stack over a (cells, repeats, d)
stack, so the oracle is called T + 1 times per group and method, not per
cell.  A group holds as many cells as fit in a fixed element budget,
which bounds memory for large grids; the default grid is one group.
Gradient noise (sigma > 0) comes from one seeded stream per starting
point, cell and method, drawn in blocks of rows.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from ._json import REQUIRED, json_floats, json_int, json_number, read_fields
from ._record import record
from .analysis import smoothness_constant
from .matrices import OrthogonalMatrix, exp_skew, random_skew, rotate_spectrum
from .norms import Euclidean, Max
from .optimizers import BatchOracle, DivergenceError, steepest_descent_stack

__all__ = [
    "GridConfig",
    "GridCell",
    "run_quad_grid",
    "grid_csv_lines",
    "GRID_CSV_HEADER",
    "DEFAULT_LAMBDA_VALUES",
    "DEFAULT_THETA_VALUES",
]

DEFAULT_LAMBDA_VALUES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
DEFAULT_THETA_VALUES = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

_DIST_FLOOR = 1e-300  # keeps the log ratio finite when a method lands exactly on 0
_NOISE_SALT = 104729


@record
class GridConfig:
    """Axes and run parameters of a benchmark grid."""

    d: int
    lambda_max_values: tuple[float, ...]
    theta_values: tuple[float, ...]
    T: int = 100
    repeats: int = 64
    skew_seed: int = 0
    x0_seed: int = 0
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "lambda_max_values", tuple(float(v) for v in self.lambda_max_values))
        object.__setattr__(self, "theta_values", tuple(float(v) for v in self.theta_values))
        if self.d < 2:
            raise ValueError("grid requires d >= 2")
        if not self.lambda_max_values or not self.theta_values:
            raise ValueError("value lists must be non-empty")
        if any(not 1.0 <= v < math.inf for v in self.lambda_max_values):
            raise ValueError("lambda_max values must be finite and at least 1")
        if any(not 0.0 <= v <= 1.0 for v in self.theta_values):
            raise ValueError("theta values must lie in [0, 1]")
        for axis in ("lambda_max_values", "theta_values"):
            values = getattr(self, axis)
            if len(set(values)) < len(values):  # two rows would share one (lambda_max, theta)
                raise ValueError(f"{axis} holds a repeated value")
        if self.T < 1:
            raise ValueError("T must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be nonnegative")
        if not math.isfinite(self.sigma):
            raise ValueError("sigma must be finite")
        if self.skew_seed < 0 or self.x0_seed < 0:
            raise ValueError("seeds must be nonnegative")

    @classmethod
    def from_json(cls, obj: dict) -> "GridConfig":
        """Config from a parsed JSON object; an unknown, missing or mistyped
        field raises ValueError naming it."""
        return cls(**read_fields(obj, "grid config", _JSON_FIELDS))


_JSON_FIELDS = {  # key -> (reader, default)
    "d": (json_int, REQUIRED), "lambda_max_values": (json_floats, DEFAULT_LAMBDA_VALUES),
    "theta_values": (json_floats, DEFAULT_THETA_VALUES), "T": (json_int, GridConfig.T),
    "repeats": (json_int, GridConfig.repeats), "skew_seed": (json_int, GridConfig.skew_seed),
    "x0_seed": (json_int, GridConfig.x0_seed), "sigma": (json_number, GridConfig.sigma),
}


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


GRID_CSV_HEADER = ",".join(GridCell.__annotations__)

_STACK_BUDGET = 1 << 18  # float64 elements per stacked array: bounds cells per group and noise rows per draw
_METHODS = {"gd": Euclidean(), "signgd_normscaled": Max()}  # the grid's methods, in column order


class _CellSetup(NamedTuple):
    li: int
    ti: int
    lam: float
    theta: float
    L: tuple[float, ...]  # per method of _METHODS, its smoothness constant
    H: np.ndarray
    x0: np.ndarray


def _cell_x0(cfg: GridConfig, li: int, ti: int) -> np.ndarray:
    rng = np.random.default_rng([cfg.x0_seed, li, ti])
    return rng.standard_normal((cfg.repeats, cfg.d))


def _run_cell(cfg: GridConfig, rotations: list[OrthogonalMatrix], li: int, ti: int) -> _CellSetup:
    """The set-up of one cell: its Hessian, each method's smoothness
    constant and the starting points.  ``rotations[ti]`` is exp(theta * S)
    for theta_values[ti].  perfbench/layertrace.py times this function by
    name as the per-cell cost of a grid."""
    lam = cfg.lambda_max_values[li]
    theta = cfg.theta_values[ti]
    eigs = np.concatenate([np.ones(cfg.d - 1), [lam]])
    try:  # a finite lambda_max can overflow the rotated Hessian
        H = rotate_spectrum(eigs, rotations[ti])
        L = tuple(smoothness_constant(H, kind) for kind in _METHODS.values())
    except ValueError as exc:
        raise ValueError(f"cell lambda_max={lam:g} theta={theta:g}: {exc}") from exc
    return _CellSetup(li, ti, lam, theta, L, H.to_array(), _cell_x0(cfg, li, ti))


def _row_noise(seeds: list, d: int, calls: int, shape: tuple[int, int]):
    """Per oracle call, one (K, R, d) array, valid until the next call: row
    r of slice k is the next d standard normals of the stream seeded by
    seeds[k * R + r].  Each stream draws B rows at once, which gives the
    values of B draws of d; B is set by _STACK_BUDGET and at most ``calls``."""
    streams = [np.random.default_rng(s) for s in seeds]
    B = max(1, min(calls, _STACK_BUDGET // (len(streams) * d)))
    block = np.empty(shape + (B, d))
    while True:
        for stream, rows in zip(streams, block.reshape(-1, B, d)):
            stream.standard_normal(out=rows)
        for b in range(B):
            yield block[:, :, b]


def _stack_oracle(H: np.ndarray, sigma: float, noise) -> BatchOracle:
    """Exact values x'Hx/2 and gradients Hx of every row of every slice,
    with slice k using H[k], plus sigma times the next ``noise`` array
    unless ``noise`` is None."""

    def oracle(X):
        G = X @ H
        F = 0.5 * np.einsum("kij,kij->ki", X, G)
        if noise is not None:
            G = G + sigma * next(noise)
        return F, G

    return oracle


def _dump_x0(dump_dir: Path, cell: _CellSetup) -> None:
    path = dump_dir / f"x0_lam{cell.lam:.17g}_theta{cell.theta:.17g}.csv"
    lines = [",".join(f"{v:.17g}" for v in row) for row in cell.x0]
    path.write_text("\n".join(lines) + "\n")


def _run_group(cfg: GridConfig, group: list[_CellSetup]):
    """Each method of _METHODS on a group of cells, as one stacked run.
    Returns per method the (K, R) final squared distances and the per-cell
    failures."""
    H = np.stack([c.H for c in group])
    X0 = np.stack([c.x0 for c in group])
    out = []
    for mi, kind in enumerate(_METHODS.values()):
        noise = None
        if cfg.sigma > 0.0:
            seeds = [[cfg.x0_seed, _NOISE_SALT, c.li, c.ti, r, mi]
                     for c in group for r in range(cfg.repeats)]
            noise = _row_noise(seeds, cfg.d, cfg.T + 1, X0.shape[:2])
        L = [c.L[mi] for c in group]
        X, failures = steepest_descent_stack(_stack_oracle(H, cfg.sigma, noise), kind, L, X0, cfg.T)
        out.append((np.einsum("kij,kij->ki", X, X), failures))
    return out


def run_quad_grid(
    cfg: GridConfig,
    dump_dir: str | Path | None = None,
    progress: Callable[[GridCell], None] | None = None,
) -> list[GridCell]:
    """All grid cells in ascending (lambda_max, theta) order.

    Cells advance in consecutive groups, all cells of a group together
    (see steepest_descent_stack); a group holds as many cells as fit in
    _STACK_BUDGET, at least one.  ``progress`` is called with each cell
    once its group has finished, so a caller keeps the finished cells when
    a later one raises DivergenceError: the first diverging cell in output
    order, its methods in _METHODS order.  ``dump_dir`` writes each cell's
    batch of starting points (shared by both methods) as CSV, for the cells
    up to and including a diverging one.
    """
    dump_path = None
    if dump_dir is not None:
        dump_path = Path(dump_dir)
        dump_path.mkdir(parents=True, exist_ok=True)

    skew = random_skew(cfg.d, np.random.default_rng(cfg.skew_seed))
    rotations = [exp_skew(skew, theta) for theta in cfg.theta_values]  # shared by every lambda_max
    lam_order = sorted(range(len(cfg.lambda_max_values)), key=lambda i: cfg.lambda_max_values[i])
    theta_order = sorted(range(len(cfg.theta_values)), key=lambda i: cfg.theta_values[i])
    order = [(li, ti) for li in lam_order for ti in theta_order]
    size = max(1, _STACK_BUDGET // (cfg.d * (cfg.repeats + cfg.d)))  # a cell: x0 and H
    cells = []
    for start in range(0, len(order), size):
        group = [_run_cell(cfg, rotations, li, ti) for li, ti in order[start:start + size]]
        results = _run_group(cfg, group)
        for k, c in enumerate(group):
            if dump_path is not None:
                _dump_x0(dump_path, c)
            for method, (_, failures) in zip(_METHODS, results):
                if failures[k] is not None:
                    step, reason = failures[k]
                    raise DivergenceError(
                        step, None,
                        f"{reason} (cell lambda_max={c.lam:g} theta={c.theta:g}, method {method})",
                    )
            L2, linf = c.L
            mean_gd, mean_sg = (float(dist[k].mean()) for dist, _ in results)
            cell = GridCell(
                lambda_max=c.lam,
                theta=c.theta,
                L2=L2,
                Linf=linf,
                ratio_smoothness=linf / (cfg.d * L2),
                mean_dist_gd=mean_gd,
                mean_dist_signgd=mean_sg,
                log10_perf_ratio=math.log10(max(mean_sg, _DIST_FLOOR) / max(mean_gd, _DIST_FLOOR)),
            )
            if progress is not None:
                progress(cell)
            cells.append(cell)
    return cells


def grid_csv_lines(cells: Iterable[GridCell]) -> list[str]:
    names = GridCell.__annotations__
    return [GRID_CSV_HEADER] + [",".join(f"{getattr(c, name):.17g}" for name in names) for c in cells]

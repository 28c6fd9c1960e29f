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

GRID_CSV_HEADER = (
    "lambda_max,theta,L2,Linf,ratio_smoothness,"
    "mean_dist_gd,mean_dist_signgd,log10_perf_ratio"
)

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
        if self.T < 1:
            raise ValueError("T must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be at least 1")
        if not self.sigma >= 0.0:
            raise ValueError("sigma must be nonnegative")
        if self.skew_seed < 0 or self.x0_seed < 0:
            raise ValueError("seeds must be nonnegative")

    @classmethod
    def from_json(cls, obj: dict) -> "GridConfig":
        """Config from a parsed JSON object; an unknown, missing or mistyped
        field raises ValueError naming it."""
        unknown = set(obj) - set(_JSON_FIELDS)
        if unknown:
            raise ValueError(f"unknown grid config keys: {sorted(unknown)}")
        if "d" not in obj:
            raise ValueError("grid config requires 'd'")
        kwargs = {"lambda_max_values": DEFAULT_LAMBDA_VALUES, "theta_values": DEFAULT_THETA_VALUES}
        for key, value in obj.items():
            try:
                kwargs[key] = _JSON_FIELDS[key](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"grid config field {key!r} has a bad value {value!r}") from exc
        return cls(**kwargs)


def _json_int(value) -> int:
    """int(value) for a JSON integer or integral number such as 5.0; a bool
    or a non-integral number raises TypeError or ValueError."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got a bool")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _floats(values) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    return tuple(float(v) for v in values)


_JSON_FIELDS = {
    "d": _json_int, "lambda_max_values": _floats, "theta_values": _floats, "T": _json_int,
    "repeats": _json_int, "skew_seed": _json_int, "x0_seed": _json_int, "sigma": float,
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


_STACK_BUDGET = 1 << 18  # float64 elements per stacked array: bounds cells per group and noise rows per draw
_METHODS = ("gd", "signgd_normscaled")


class _CellSetup(NamedTuple):
    li: int
    ti: int
    lam: float
    theta: float
    L2: float
    Linf: float
    H: np.ndarray
    x0: np.ndarray


def _cell_x0(cfg: GridConfig, li: int, ti: int) -> np.ndarray:
    rng = np.random.default_rng([cfg.x0_seed, li, ti])
    return rng.standard_normal((cfg.repeats, cfg.d))


def _run_cell(cfg: GridConfig, rotations: list[OrthogonalMatrix], li: int, ti: int) -> _CellSetup:
    """The set-up of one cell: its Hessian, smoothness constants and starting
    points.  ``rotations[ti]`` is exp(theta * S) for theta_values[ti].
    perfbench/layertrace.py times this function by name as the per-cell cost
    of a grid."""
    lam = cfg.lambda_max_values[li]
    theta = cfg.theta_values[ti]
    eigs = np.concatenate([np.ones(cfg.d - 1), [lam]])
    try:  # a finite lambda_max can overflow the rotated Hessian, and d can be too large for exact Linf
        H = rotate_spectrum(eigs, rotations[ti])
        L2 = smoothness_constant(H, Euclidean())
        linf = smoothness_constant(H, Max())
    except ValueError as exc:
        raise ValueError(f"cell lambda_max={lam:g} theta={theta:g}: {exc}") from exc
    return _CellSetup(li, ti, lam, theta, L2, linf, H.to_array(), _cell_x0(cfg, li, ti))


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
    """Both methods on a group of cells, each as one stacked run.  Returns
    per method the (K, R) final squared distances and the per-cell failures."""
    H = np.stack([c.H for c in group])
    X0 = np.stack([c.x0 for c in group])
    out = []
    for mi, (kind, L) in enumerate(
        ((Euclidean(), [c.L2 for c in group]), (Max(), [c.Linf for c in group]))
    ):
        noise = None
        if cfg.sigma > 0.0:
            seeds = [[cfg.x0_seed, _NOISE_SALT, c.li, c.ti, r, mi]
                     for c in group for r in range(cfg.repeats)]
            noise = _row_noise(seeds, cfg.d, cfg.T + 1, X0.shape[:2])
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
    order, gd before sign descent.  ``dump_dir`` writes each cell's batch
    of starting points (shared by both methods) as CSV, for the cells up
    to and including a diverging one.
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
        (dist_gd, fail_gd), (dist_sg, fail_sg) = _run_group(cfg, group)
        for k, c in enumerate(group):
            if dump_path is not None:
                _dump_x0(dump_path, c)
            for method, failure in zip(_METHODS, (fail_gd[k], fail_sg[k])):
                if failure is not None:
                    step, reason = failure
                    raise DivergenceError(
                        step, None,
                        f"{reason} (cell lambda_max={c.lam:g} theta={c.theta:g}, method {method})",
                    )
            mean_gd, mean_sg = float(dist_gd[k].mean()), float(dist_sg[k].mean())
            cell = GridCell(
                lambda_max=c.lam,
                theta=c.theta,
                L2=c.L2,
                Linf=c.Linf,
                ratio_smoothness=c.Linf / (cfg.d * c.L2),
                mean_dist_gd=mean_gd,
                mean_dist_signgd=mean_sg,
                log10_perf_ratio=math.log10(max(mean_sg, _DIST_FLOOR) / max(mean_gd, _DIST_FLOOR)),
            )
            if progress is not None:
                progress(cell)
            cells.append(cell)
    return cells


def grid_csv_lines(cells: Iterable[GridCell]) -> list[str]:
    lines = [GRID_CSV_HEADER]
    for c in cells:
        lines.append(
            ",".join(
                f"{v:.17g}"
                for v in (
                    c.lambda_max, c.theta, c.L2, c.Linf, c.ratio_smoothness,
                    c.mean_dist_gd, c.mean_dist_signgd, c.log10_perf_ratio,
                )
            )
        )
    return lines

"""Paired quadratic benchmark grids: gradient descent vs norm-scaled sign descent.

Each grid cell is a quadratic with spectrum (1, ..., 1, lambda_max) rotated
by theta along one shared random path.  Both methods run from the same
batch of standard-normal starting points with their natural step sizes
(1/L2 and 1/Linf) and are compared by the mean squared Euclidean distance
to the optimum after T steps.  All starting points of a cell advance
together as one (repeats, d) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .matrices import SkewMatrix, random_skew, rotated_hessian
from .norms import Euclidean, Max
from .optimizers import BatchOracle, DivergenceError, steepest_descent_batch
from .problems import QuadraticProblem

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


@dataclass(frozen=True)
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


def _floats(values) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {type(values).__name__}")
    return tuple(float(v) for v in values)


_JSON_FIELDS = {
    "d": int, "lambda_max_values": _floats, "theta_values": _floats, "T": int,
    "repeats": int, "skew_seed": int, "x0_seed": int, "sigma": float,
}


@dataclass(frozen=True)
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


def _cell_x0(cfg: GridConfig, li: int, ti: int) -> np.ndarray:
    rng = np.random.default_rng([cfg.x0_seed, li, ti])
    return rng.standard_normal((cfg.repeats, cfg.d))


def _batch_oracle(H: np.ndarray, sigma: float, streams) -> BatchOracle:
    """Exact values x'Hx/2 and gradients Hx of every row, plus sigma times
    d standard normals per row from that row's own stream when sigma > 0."""

    def oracle(X):
        G = X @ H
        F = 0.5 * np.einsum("ij,ij->i", X, G)
        if sigma > 0.0:
            G = G + sigma * np.stack([s.standard_normal(H.shape[0]) for s in streams])
        return F, G

    return oracle


def _run_cell(cfg: GridConfig, skew: SkewMatrix, li: int, ti: int,
              dump_dir: Path | None) -> GridCell:
    lam = cfg.lambda_max_values[li]
    theta = cfg.theta_values[ti]
    eigs = np.concatenate([np.ones(cfg.d - 1), [lam]])
    problem = QuadraticProblem.from_matrix(rotated_hessian(eigs, skew, theta))
    L2 = problem.analysis.L2
    linf = problem.analysis.Linf_exact
    assert linf is not None  # d <= brute-force cap is enforced upstream

    x0_batch = _cell_x0(cfg, li, ti)
    if dump_dir is not None:
        path = dump_dir / f"x0_lam{lam:.17g}_theta{theta:.17g}.csv"
        lines = [",".join(f"{v:.17g}" for v in row) for row in x0_batch]
        path.write_text("\n".join(lines) + "\n")

    H = problem.matrix.to_array()
    means = []
    for mi, (method, kind, L) in enumerate(
        (("gd", Euclidean(), L2), ("signgd_normscaled", Max(), linf))
    ):
        streams = None
        if cfg.sigma > 0.0:
            streams = [
                np.random.default_rng([cfg.x0_seed, _NOISE_SALT, li, ti, r, mi])
                for r in range(cfg.repeats)
            ]
        oracle = _batch_oracle(H, cfg.sigma, streams)
        try:
            X = steepest_descent_batch(oracle, kind, L, x0_batch, cfg.T)
        except DivergenceError as exc:
            raise DivergenceError(
                exc.step, None,
                f"{exc.reason} (cell lambda_max={lam:g} theta={theta:g}, method {method})",
            ) from exc
        means.append(float(np.einsum("ij,ij->i", X, X).mean()))

    mean_gd, mean_sg = means
    ratio = math.log10(max(mean_sg, _DIST_FLOOR) / max(mean_gd, _DIST_FLOOR))
    return GridCell(
        lambda_max=lam,
        theta=theta,
        L2=L2,
        Linf=linf,
        ratio_smoothness=linf / (cfg.d * L2),
        mean_dist_gd=mean_gd,
        mean_dist_signgd=mean_sg,
        log10_perf_ratio=ratio,
    )


def run_quad_grid(
    cfg: GridConfig,
    dump_dir: str | Path | None = None,
    progress: Callable[[GridCell], None] | None = None,
) -> list[GridCell]:
    """All grid cells in ascending (lambda_max, theta) order.

    ``progress`` is called with each cell as it completes, so a caller keeps
    the finished cells when a later one raises DivergenceError.
    ``dump_dir`` writes each cell's batch of starting points (shared by
    both methods) as CSV.
    """
    dump_path = None
    if dump_dir is not None:
        dump_path = Path(dump_dir)
        dump_path.mkdir(parents=True, exist_ok=True)

    skew = random_skew(cfg.d, np.random.default_rng(cfg.skew_seed))
    lam_order = sorted(range(len(cfg.lambda_max_values)), key=lambda i: cfg.lambda_max_values[i])
    theta_order = sorted(range(len(cfg.theta_values)), key=lambda i: cfg.theta_values[i])
    cells = []
    for li in lam_order:
        for ti in theta_order:
            cell = _run_cell(cfg, skew, li, ti, dump_path)
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

import json
import math
from pathlib import Path

import numpy as np
import pytest

from normdescent import (
    Euclidean,
    GridConfig,
    Max,
    make_quadratic,
    quad_noisy_oracle,
    quad_oracle,
    run_quad_grid,
    run_steepest_descent,
)
from normdescent.experiments import DEFAULT_LAMBDA_VALUES, DEFAULT_THETA_VALUES, _NOISE_SALT

ROUNDING_LEVEL = 1e-20  # a mean squared distance below this is rounding noise


def scalar_reference(cfg: GridConfig, li: int, ti: int) -> tuple[float, float]:
    """Mean final squared distances of one cell, one scalar run per row."""
    p = make_quadratic(cfg.d, cfg.lambda_max_values[li], cfg.theta_values[ti], cfg.skew_seed)
    x0 = np.random.default_rng([cfg.x0_seed, li, ti]).standard_normal((cfg.repeats, cfg.d))
    means = []
    for mi, (kind, L) in enumerate(((Euclidean(), p.analysis.L2), (Max(), p.analysis.Linf_exact))):
        dists = []
        for r, start in enumerate(x0):
            if cfg.sigma > 0.0:
                stream = np.random.default_rng([cfg.x0_seed, _NOISE_SALT, li, ti, r, mi])
                oracle = quad_noisy_oracle(p, cfg.sigma, stream)
            else:
                oracle = quad_oracle(p)
            tr = run_steepest_descent(oracle, kind, L, start, cfg.T, x_star=np.zeros(cfg.d))
            dists.append(tr.dist_sq[-1])
        means.append(float(np.mean(dists)))
    return means[0], means[1]


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_batched_grid_matches_scalar_runs(sigma):
    cfg = GridConfig(
        d=6,
        lambda_max_values=(1.0, 10.0, 100.0),
        theta_values=(0.0, 0.5, 1.0),
        T=80,
        repeats=16,
        skew_seed=5,
        x0_seed=3,
        sigma=sigma,
    )
    cells = run_quad_grid(cfg)
    assert len(cells) == 9
    for cell in cells:
        li = cfg.lambda_max_values.index(cell.lambda_max)
        ti = cfg.theta_values.index(cell.theta)
        ref_gd, ref_sg = scalar_reference(cfg, li, ti)
        for got, want in ((cell.mean_dist_gd, ref_gd), (cell.mean_dist_signgd, ref_sg)):
            if want > ROUNDING_LEVEL:
                assert got == pytest.approx(want, rel=1e-10), (cell, want)
            else:
                assert 0.0 <= got <= ROUNDING_LEVEL, (cell, want)
        if min(ref_gd, ref_sg) > ROUNDING_LEVEL:
            want_ratio = math.log10(ref_sg / ref_gd)
            assert np.sign(cell.log10_perf_ratio) == np.sign(want_ratio), (cell, want_ratio)


def test_shipped_paper_config_is_the_default_grid():
    path = Path(__file__).resolve().parent.parent / "scripts" / "quadgrid_paper.json"
    cfg = GridConfig.from_json(json.loads(path.read_text()))
    assert cfg == GridConfig(
        d=8, lambda_max_values=DEFAULT_LAMBDA_VALUES, theta_values=DEFAULT_THETA_VALUES
    )

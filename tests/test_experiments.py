import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from normdescent import (
    DivergenceError,
    Euclidean,
    GridCell,
    GridConfig,
    Max,
    exp_skew,
    grid_csv_lines,
    make_quadratic,
    quad_noisy_oracle,
    quad_oracle,
    random_skew,
    run_quad_grid,
    run_steepest_descent,
    smoothness_constant,
    steepest_descent_stack,
)
from normdescent import experiments
from normdescent.experiments import (
    _DIST_FLOOR,
    _NOISE_SALT,
    DEFAULT_LAMBDA_VALUES,
    DEFAULT_THETA_VALUES,
    GRID_CSV_HEADER,
)

ROUNDING_LEVEL = 1e-20  # a mean squared distance below this is rounding noise


def scalar_reference(cfg: GridConfig, li: int, ti: int) -> tuple[float, float]:
    """Mean final squared distances of one cell, one scalar run per row."""
    p = make_quadratic(cfg.d, cfg.lambda_max_values[li], cfg.theta_values[ti], cfg.skew_seed)
    x0 = np.random.default_rng([cfg.x0_seed, li, ti]).standard_normal((cfg.repeats, cfg.d))
    means = []
    for mi, kind in enumerate((Euclidean(), Max())):
        L = smoothness_constant(p.matrix, kind)
        dists = []
        for r, start in enumerate(x0):
            if cfg.sigma > 0.0:
                stream = np.random.default_rng([cfg.x0_seed, _NOISE_SALT, li, ti, r, mi])
                oracle = quad_noisy_oracle(p, cfg.sigma, stream)
            else:
                oracle = quad_oracle(p)
            tr = run_steepest_descent(oracle, kind, L, start, cfg.T)
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


def test_grid_csv_text_is_pinned():
    # the documented header, and every field printed with %.17g in header order
    assert GRID_CSV_HEADER == (
        "lambda_max,theta,L2,Linf,ratio_smoothness,mean_dist_gd,mean_dist_signgd,log10_perf_ratio"
    )
    cell = GridCell(50.0, 0.2, 50.0, 57.5, 0.14375, 1e-3, 2.5e-5, -1.6020599913279623)
    assert grid_csv_lines([cell]) == [
        GRID_CSV_HEADER,
        "50,0.20000000000000001,50,57.5,0.14374999999999999,0.001,2.5000000000000001e-05,-1.6020599913279623",
    ]


@pytest.mark.parametrize("axis, values", [
    ("lambda_max_values", (2, 2.0)), ("lambda_max_values", (1.0, 5.0, 1.0)), ("theta_values", (0.5, 0.5)),
])
def test_repeated_axis_value_is_rejected(axis, values):
    # two rows would share one (lambda_max, theta), and --dump-x0 one file name
    fields = {"d": 3, "lambda_max_values": (2.0,), "theta_values": (0.5,), axis: values}
    with pytest.raises(ValueError, match=f"^{axis} holds a repeated value$"):
        GridConfig(**fields)


def test_cell_hessians_are_make_quadratic_matrices(monkeypatch):
    # run and quadgrid build the same matrix, bit for bit
    built = []

    def recorded(cfg, rotations, li, ti):
        cell = run_cell(cfg, rotations, li, ti)
        built.append(cell)
        return cell

    run_cell = experiments._run_cell
    monkeypatch.setattr(experiments, "_run_cell", recorded)
    cfg = GridConfig(d=7, lambda_max_values=(1.0, 3.0, 50.0), theta_values=(0.0, 0.3, 1.0),
                     T=2, repeats=1, skew_seed=4)
    run_quad_grid(cfg)
    assert len(built) == 9
    for cell in built:
        want = make_quadratic(cfg.d, cell.lam, cell.theta, cfg.skew_seed).matrix.to_array()
        assert cell.H.tobytes() == want.tobytes()


# ------------------------------------------------------------ stacked cells


def per_cell_reference(cfg: GridConfig) -> list[tuple]:
    """Every cell in output order, run one cell at a time as a stack of one
    slice, with the noise of each row drawn per step: (lambda_max, theta,
    L2, Linf, per method the mean final squared distance or the (step,
    reason) of its divergence)."""
    lam_order = sorted(range(len(cfg.lambda_max_values)), key=lambda i: cfg.lambda_max_values[i])
    theta_order = sorted(range(len(cfg.theta_values)), key=lambda i: cfg.theta_values[i])
    out = []
    for li in lam_order:
        for ti in theta_order:
            lam, theta = cfg.lambda_max_values[li], cfg.theta_values[ti]
            p = make_quadratic(cfg.d, lam, theta, cfg.skew_seed)
            H = p.matrix.to_array()
            x0 = np.random.default_rng([cfg.x0_seed, li, ti]).standard_normal((cfg.repeats, cfg.d))
            L2, linf = (smoothness_constant(p.matrix, kind) for kind in (Euclidean(), Max()))
            results = []
            for mi, (kind, L) in enumerate(((Euclidean(), L2), (Max(), linf))):
                streams = [np.random.default_rng([cfg.x0_seed, _NOISE_SALT, li, ti, r, mi])
                           for r in range(cfg.repeats)]

                def oracle(X, streams=streams):
                    G = X[0] @ H
                    F = 0.5 * np.einsum("ij,ij->i", X[0], G)
                    if cfg.sigma > 0.0:
                        G = G + cfg.sigma * np.stack([s.standard_normal(cfg.d) for s in streams])
                    return F[None], G[None]

                with np.errstate(all="ignore"):
                    X, (failure,) = steepest_descent_stack(oracle, kind, [L], x0[None], cfg.T)
                results.append(failure or float(np.einsum("ij,ij->i", X[0], X[0]).mean()))
            out.append((lam, theta, L2, linf, results))
    return out


def reference_grid(cfg: GridConfig) -> tuple[list[str], str | None, int | None]:
    """The CSV lines of the finished cells and the error message and step of
    the first diverging cell in output order (gd before sign descent)."""
    cells = []
    for lam, theta, L2, linf, results in per_cell_reference(cfg):
        for method, res in zip(("gd", "signgd_normscaled"), results):
            if isinstance(res, tuple):
                step, reason = res
                msg = (f"divergence at step {step}: {reason} "
                       f"(cell lambda_max={lam:g} theta={theta:g}, method {method})")
                return grid_csv_lines(cells), msg, step
        gd, sg = results
        cells.append(GridCell(lam, theta, L2, linf, linf / (cfg.d * L2), gd, sg,
                              math.log10(max(sg, _DIST_FLOOR) / max(gd, _DIST_FLOOR))))
    return grid_csv_lines(cells), None, None


def stacked_grid(cfg: GridConfig, dump_dir=None) -> tuple[list[str], str | None, int | None, list]:
    done = []
    try:
        cells = run_quad_grid(cfg, dump_dir=dump_dir, progress=done.append)
    except DivergenceError as exc:
        return grid_csv_lines(done), str(exc), exc.step, done
    assert cells == done
    return grid_csv_lines(cells), None, None, done


def split_budget(cfg: GridConfig, cells_per_group: int) -> int:
    """A stack budget giving groups of ``cells_per_group`` cells."""
    return cells_per_group * cfg.d * (cfg.repeats + cfg.d)


NOISY_GRID = GridConfig(d=5, lambda_max_values=(1.0, 7.0, 30.0), theta_values=(0.0, 0.3, 0.9),
                        T=40, repeats=9, skew_seed=2, x0_seed=4, sigma=2.0)
# Noisy grids near the divergence threshold, found by search.  Cells in
# output order, with the steps at which gd / sign descent diverge:
#   A_B: cell 1 sign descent at 49; cell 2 gd at 38, sign descent at 27.
#   C:   cell 0 gd at 32, sign descent at 9; cell 1 gd at 22, sign descent at 4.
DIVERGING = {
    "A_B": GridConfig(d=4, lambda_max_values=(1.0, 2.0, 5.0, 20.0, 100.0), theta_values=(0.0, 0.5, 1.0),
                      T=60, repeats=3, skew_seed=9, x0_seed=9, sigma=3.5e5),
    "C": GridConfig(d=4, lambda_max_values=(1.0, 2.0, 5.0, 20.0, 100.0), theta_values=(0.0, 0.5, 1.0),
                    T=60, repeats=3, skew_seed=0, x0_seed=0, sigma=4e5),
}


@pytest.mark.parametrize("cells_per_group", [None, 1, 4])
@pytest.mark.parametrize("sigma", [0.0, 2.0])
def test_grid_rows_match_a_per_cell_per_step_reference(monkeypatch, sigma, cells_per_group):
    cfg = GridConfig(**{**NOISY_GRID.__dict__, "sigma": sigma})
    if cells_per_group is not None:
        # also shrinks the noise blocks to one or two rows per draw
        monkeypatch.setattr(experiments, "_STACK_BUDGET", split_budget(cfg, cells_per_group))
    lines, error, _, _ = stacked_grid(cfg)
    assert error is None
    assert lines == reference_grid(cfg)[0]


def test_each_rotation_is_built_once_per_theta(monkeypatch):
    calls = []

    def counted(S, theta):
        calls.append(theta)
        return exp_skew(S, theta)

    monkeypatch.setattr(experiments, "exp_skew", counted)
    cfg = GridConfig(d=4, lambda_max_values=DEFAULT_LAMBDA_VALUES, theta_values=DEFAULT_THETA_VALUES,
                     T=3, repeats=2, skew_seed=5, x0_seed=6)
    lines, error, _, _ = stacked_grid(cfg)
    assert sorted(calls) == sorted(DEFAULT_THETA_VALUES)  # 6 rotations for 42 cells
    assert error is None
    assert lines == reference_grid(cfg)[0]  # the reference rotates per cell


def test_noise_blocks_cover_several_draws(monkeypatch):
    cfg = NOISY_GRID
    seeds = [[1, r] for r in range(6)]
    want = np.stack([np.random.default_rng(s).standard_normal((cfg.T + 1, cfg.d)) for s in seeds])
    for budget in (6 * cfg.d, 6 * cfg.d * 7, 10**6):  # blocks of 1, 7 and all T + 1 rows
        monkeypatch.setattr(experiments, "_STACK_BUDGET", budget)
        noise = experiments._row_noise(seeds, cfg.d, cfg.T + 1, (2, 3))
        got = np.stack([next(noise).reshape(6, cfg.d).copy() for _ in range(cfg.T + 1)], axis=1)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cells_per_group", [None, 1, 2, 4])
@pytest.mark.parametrize("name", sorted(DIVERGING))
def test_divergence_reports_the_first_cell_in_output_order(monkeypatch, tmp_path, name, cells_per_group):
    cfg = DIVERGING[name]
    ref = per_cell_reference(cfg)
    steps = [[r[0] if isinstance(r, tuple) else None for r in cell[4]] for cell in ref]
    if name == "A_B":
        # an earlier cell diverging at a later step than a later cell, and
        # sign descent of cell k diverging later than gd of cell k + 1
        assert steps[:3] == [[None, None], [None, 49], [38, 27]]
    else:
        # gd of a cell diverging after its sign descent is still the one reported
        assert steps[:2] == [[32, 9], [22, 4]]
    if cells_per_group is not None:
        monkeypatch.setattr(experiments, "_STACK_BUDGET", split_budget(cfg, cells_per_group))
    lines, error, step, done = stacked_grid(cfg, dump_dir=tmp_path)
    want_lines, want_error, want_step = reference_grid(cfg)
    assert (lines, error, step) == (want_lines, want_error, want_step)
    assert want_error.endswith("method signgd_normscaled)" if name == "A_B" else "method gd)")
    # starting points are written for the finished cells and the diverging one
    assert len(list(tmp_path.glob("x0_*.csv"))) == len(done) + 1


def test_split_groups_give_the_same_bytes(monkeypatch, tmp_path):
    cfg = GridConfig(d=6, lambda_max_values=(1.0, 3.0, 20.0), theta_values=(0.0, 0.25, 0.5, 1.0),
                     T=30, repeats=5, skew_seed=1, x0_seed=8)
    one, _, _, _ = stacked_grid(cfg, dump_dir=tmp_path / "one")
    for cells_per_group in (1, 5, 11):
        monkeypatch.setattr(experiments, "_STACK_BUDGET", split_budget(cfg, cells_per_group))
        dump = tmp_path / str(cells_per_group)
        assert stacked_grid(cfg, dump_dir=dump)[0] == one
        for path in (tmp_path / "one").iterdir():
            assert (dump / path.name).read_bytes() == path.read_bytes()


def test_diverging_grid_raises_no_runtime_warning():
    # cells that blow up are zeroed and frozen while the rest of their
    # stack runs on to T; nothing in it overflows
    cfg = DIVERGING["C"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DivergenceError, match="cell lambda_max=1 theta=0, method gd"):
            run_quad_grid(cfg)


def test_grid_above_the_walk_cap_has_the_closed_form_linf():
    # the column check closes every cell of the family, so no cell needs the walk's cap
    cfg = GridConfig(d=25, lambda_max_values=(2.0, 50.0), theta_values=(0.0, 0.5), T=3, repeats=2)
    skew = random_skew(cfg.d, np.random.default_rng(cfg.skew_seed))
    u1 = {theta: float(np.abs(exp_skew(skew, theta).entries[:, -1]).sum()) for theta in cfg.theta_values}
    cells = run_quad_grid(cfg)
    assert len(cells) == 4
    for c in cells:
        assert c.Linf == pytest.approx(cfg.d + (c.lambda_max - 1.0) * u1[c.theta] ** 2, rel=1e-12)

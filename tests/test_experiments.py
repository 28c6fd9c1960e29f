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
    cell_starts,
    exp_skew,
    make_quadratic,
    quad_oracle,
    random_skew,
    run_quad_grid,
    run_steepest_descent,
    smoothness_constant,
    steepest_descent_stack,
)
from normdescent import cli, experiments, problems
from normdescent.cli import grid_csv_lines
from normdescent.experiments import _DIST_FLOOR, _NOISE_SALT

ROUNDING_LEVEL = 1e-20  # a mean squared distance below this is rounding noise


def cell_noise(cfg: GridConfig, li: int, ti: int, mi: int) -> np.ndarray:
    """The gradient noise of one cell and method, drawn one oracle call at a
    time: [t, r] is row r of call t's (repeats, d) draw of the cell's and
    method's stream."""
    stream = np.random.default_rng([cfg.x0_seed, _NOISE_SALT, li, ti, mi])
    return np.stack([cfg.sigma * stream.standard_normal((cfg.repeats, cfg.d)) for _ in range(cfg.T + 1)])


def noisy_row_oracle(p, noise: np.ndarray):
    """quad_oracle(p) with noise[t] added to the gradient of call t."""
    exact = quad_oracle(p)
    rows = iter(noise)

    def oracle(x):
        f, g = exact(x)
        return f, g + next(rows)

    return oracle


def scalar_reference(cfg: GridConfig, li: int, ti: int) -> tuple[float, float]:
    """Mean final squared distances of one cell, one scalar run per row."""
    p = make_quadratic(cfg.d, cfg.lambda_max_values[li], cfg.theta_values[ti], cfg.skew_seed)
    x0 = np.random.default_rng([cfg.x0_seed, li, ti]).standard_normal((cfg.repeats, cfg.d))
    means = []
    for mi, kind in enumerate((Euclidean(), Max())):
        L = smoothness_constant(p, kind)
        noise = cell_noise(cfg, li, ti, mi) if cfg.sigma > 0.0 else None
        dists = []
        for r, start in enumerate(x0):
            oracle = quad_oracle(p) if noise is None else noisy_row_oracle(p, noise[:, r])
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
    cfg = GridConfig(**cli.read_fields(json.loads(path.read_text()), "grid config", cli._GRID_FIELDS))
    assert cfg == GridConfig(
        d=8, lambda_max_values=GridConfig.lambda_max_values, theta_values=GridConfig.theta_values
    )


@pytest.mark.parametrize("fields, message", [
    ({"T": 0}, "T must be positive"),
    ({"repeats": 0}, "repeats must be at least 1"),
    ({"x0_seed": -1}, "seeds must be nonnegative"),
    ({"skew_seed": -1}, "seeds must be nonnegative"),
])
def test_library_caller_gets_the_config_checks(fields, message):
    # the CLI's readers reject these values first; GridConfig keeps its own checks for library callers
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridConfig(d=3, **fields)


@pytest.mark.parametrize("axis, values", [
    ("lambda_max_values", (2, 2.0)), ("lambda_max_values", (1.0, 5.0, 1.0)), ("theta_values", (0.5, 0.5)),
])
def test_repeated_axis_value_is_rejected(axis, values):
    # two rows would share one (lambda_max, theta), and --dump-x0 one file name
    fields = {"d": 3, "lambda_max_values": (2.0,), "theta_values": (0.5,), axis: values}
    with pytest.raises(ValueError, match=f"^{axis} holds a repeated value$"):
        GridConfig(**fields)


@pytest.mark.parametrize("cells_per_group", [None, 2])
def test_cell_hessians_are_make_quadratic_matrices(monkeypatch, cells_per_group):
    # run and quadgrid build the same matrix, bit for bit, in one group or several
    stacks = []

    def recorded(H, noise):
        stacks.append(H)
        return stack_oracle(H, noise)

    stack_oracle = experiments._stack_oracle
    monkeypatch.setattr(experiments, "_stack_oracle", recorded)
    cfg = GridConfig(d=7, lambda_max_values=(50.0, 1.0, 3.0), theta_values=(1.0, 0.0, 0.3),
                     T=2, repeats=1, skew_seed=4)
    if cells_per_group is not None:
        monkeypatch.setattr(experiments, "_STACK_BUDGET", split_budget(cfg, cells_per_group))
    run_quad_grid(cfg)
    built = np.concatenate(stacks[::2])  # one stack per group and method
    assert len(built) == 9 and all(len(H) <= (cells_per_group or 9) for H in stacks)
    for H, (li, ti, _) in zip(built, cell_starts(cfg)):
        want = make_quadratic(cfg.d, cfg.lambda_max_values[li], cfg.theta_values[ti], cfg.skew_seed).to_array()
        assert H.tobytes() == want.tobytes()


def test_cell_starts_are_the_seeded_draws_in_output_order():
    cfg = GridConfig(d=3, lambda_max_values=(5.0, 1.0, 2.0), theta_values=(0.5, 0.0), repeats=4, x0_seed=11)
    starts = list(cell_starts(cfg))
    assert [(li, ti) for li, ti, _ in starts] == [(1, 1), (1, 0), (2, 1), (2, 0), (0, 1), (0, 0)]
    for li, ti, x0 in starts:
        want = np.random.default_rng([cfg.x0_seed, li, ti]).standard_normal((cfg.repeats, cfg.d))
        assert x0.tobytes() == want.tobytes()


def test_every_cell_is_checked_before_the_first_group_runs(monkeypatch):
    # the last lambda_max breaks the family's rule: the config is rejected, so no cell is built
    fields = dict(d=8, lambda_max_values=(2.0, 3.0, 2e8), theta_values=(0.0, 1.0), T=1, repeats=1)
    calls = []
    monkeypatch.setattr(experiments, "_run_cell", lambda *args: calls.append(args))
    monkeypatch.setattr(experiments, "_run_group", lambda *args: calls.append(args))
    done = []
    with pytest.raises(ValueError, match=r"^lambda_max must lie in \[1, 1e8\], got 200000000.0$"):
        run_quad_grid(GridConfig(**fields), progress=done.append)
    assert calls == [] and done == []


@pytest.mark.parametrize("cells_per_group", [None, 2, 1])
def test_each_cell_is_built_once_in_its_group(monkeypatch, cells_per_group):
    # the family builds each cell's Hessian once, and _run_cell runs just before the cell's group
    cfg = GridConfig(d=5, lambda_max_values=(4.0, 1.0, 2.0), theta_values=(0.0, 0.5), T=2, repeats=2)
    if cells_per_group is not None:
        monkeypatch.setattr(experiments, "_STACK_BUDGET", split_budget(cfg, cells_per_group))
    events = []
    family_call, run_cell, run_group = problems._QuadraticFamily.__call__, experiments._run_cell, experiments._run_group

    def built(family, lam, theta):
        events.append(("family", lam, theta))
        return family_call(family, lam, theta)

    def cell(*args):
        events.append(("cell", *args[2:]))
        return run_cell(*args)

    def group(cfg, setups, X0):
        events.append(("group", [(c.li, c.ti) for c in setups]))
        return run_group(cfg, setups, X0)

    monkeypatch.setattr(problems._QuadraticFamily, "__call__", built)
    monkeypatch.setattr(experiments, "_run_cell", cell)
    monkeypatch.setattr(experiments, "_run_group", group)
    run_quad_grid(cfg)
    order = [(li, ti) for li, ti, _ in cell_starts(cfg)]
    size = cells_per_group or len(order)
    want = []
    for start in range(0, len(order), size):
        part = order[start:start + size]
        for li, ti in part:
            want += [("cell", li, ti), ("family", cfg.lambda_max_values[li], cfg.theta_values[ti])]
        want.append(("group", part))
    assert events == want
    assert sum(e[0] == "family" for e in events) == len(order) == 6


# ------------------------------------------------------------ stacked cells


def per_cell_reference(cfg: GridConfig) -> list[tuple]:
    """Every cell in output order, run one cell at a time as a stack of one
    slice, with the noise of each step drawn by its own call: (lambda_max, theta,
    L2, Linf, per method the mean final squared distance or the (step,
    reason) of its divergence)."""
    lam_order = sorted(range(len(cfg.lambda_max_values)), key=lambda i: cfg.lambda_max_values[i])
    theta_order = sorted(range(len(cfg.theta_values)), key=lambda i: cfg.theta_values[i])
    out = []
    for li in lam_order:
        for ti in theta_order:
            lam, theta = cfg.lambda_max_values[li], cfg.theta_values[ti]
            p = make_quadratic(cfg.d, lam, theta, cfg.skew_seed)
            H = p.to_array()
            x0 = np.random.default_rng([cfg.x0_seed, li, ti]).standard_normal((cfg.repeats, cfg.d))
            L2, linf = (smoothness_constant(p, kind) for kind in (Euclidean(), Max()))
            results = []
            for mi, (kind, L) in enumerate(((Euclidean(), L2), (Max(), linf))):
                stream = np.random.default_rng([cfg.x0_seed, _NOISE_SALT, li, ti, mi])

                def oracle(X, stream=stream):
                    G = X[0] @ H
                    F = 0.5 * np.einsum("ij,ij->i", X[0], G)
                    if cfg.sigma > 0.0:
                        G = G + cfg.sigma * stream.standard_normal((cfg.repeats, cfg.d))
                    return F[None], G[None]

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


def stacked_grid(cfg: GridConfig) -> tuple[list[str], str | None, int | None, list]:
    done = []
    try:
        cells = run_quad_grid(cfg, progress=done.append)
    except DivergenceError as exc:
        return grid_csv_lines(done), str(exc), exc.step, done
    assert cells == done
    return grid_csv_lines(cells), None, None, done


def split_budget(cfg: GridConfig, cells_per_group: int) -> int:
    """A stack budget giving groups of ``cells_per_group`` cells."""
    return cells_per_group * cfg.d * (cfg.repeats + cfg.d)


NOISY_GRID = GridConfig(d=5, lambda_max_values=(1.0, 7.0, 30.0), theta_values=(0.0, 0.3, 0.9),
                        T=40, repeats=9, skew_seed=2, x0_seed=4, sigma=2.0)
# Noisy grids near the divergence limit, found by search.  Cells in
# output order, with the steps at which gd / sign descent diverge:
#   A_B: cell 1 sign descent at 44; cell 2 gd at 14, sign descent at 27.
#   C:   cell 0 gd at 38, sign descent at 21; cell 1 gd at 37, sign descent at 32.
DIVERGING = {
    "A_B": GridConfig(d=4, lambda_max_values=(1.0, 2.0, 5.0, 20.0, 100.0), theta_values=(0.0, 0.5, 1.0),
                      T=60, repeats=3, skew_seed=9, x0_seed=126, sigma=4e5),
    "C": GridConfig(d=4, lambda_max_values=(1.0, 2.0, 5.0, 20.0, 100.0), theta_values=(0.0, 0.5, 1.0),
                    T=60, repeats=3, skew_seed=0, x0_seed=41, sigma=4e5),
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

    monkeypatch.setattr(problems, "exp_skew", counted)
    cfg = GridConfig(d=4, lambda_max_values=GridConfig.lambda_max_values, theta_values=GridConfig.theta_values,
                     T=3, repeats=2, skew_seed=5, x0_seed=6)
    lines, error, _, _ = stacked_grid(cfg)
    assert sorted(calls) == sorted(GridConfig.theta_values)  # 6 rotations for 42 cells
    assert error is None
    assert lines == reference_grid(cfg)[0]  # the reference rotates per cell


def test_noise_blocks_cover_several_draws(monkeypatch):
    cfg = NOISY_GRID
    blocks = []

    def recorded(stream, sigma, shape, block):
        blocks.append(block)
        return noise_draws(stream, sigma, shape, block)

    noise_draws = experiments._noise_draws
    monkeypatch.setattr(experiments, "_noise_draws", recorded)
    call = 9 * cfg.repeats * cfg.d  # the elements of one call's noise: the grid's 9 cells are one group
    assert call <= split_budget(cfg, 9) < 2 * call
    for budget, block in ((split_budget(cfg, 9), 1), (7 * call, 7), (10**6, cfg.T + 1)):
        monkeypatch.setattr(experiments, "_STACK_BUDGET", budget)
        blocks.clear()
        lines, error, _, _ = stacked_grid(cfg)
        assert blocks == [block] * 18  # one stream per cell and method
        assert error is None
        assert lines == reference_grid(cfg)[0]
        want = cell_noise(cfg, 2, 1, 0)
        draws = noise_draws(np.random.default_rng([cfg.x0_seed, _NOISE_SALT, 2, 1, 0]),
                            cfg.sigma, (cfg.repeats, cfg.d), block)
        assert np.stack([next(draws) for _ in range(cfg.T + 1)]).tobytes() == want.tobytes()


def test_noisy_grid_builds_one_stream_per_cell_and_method(monkeypatch):
    cfg = NOISY_GRID
    seeds = []

    def counted(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", counted)
    lines, error, _, _ = stacked_grid(cfg)
    assert error is None
    cells = [(li, ti) for li in range(3) for ti in range(3)]
    assert sorted(seeds, key=str) == sorted(
        [cfg.skew_seed]
        + [[cfg.x0_seed, li, ti] for li, ti in cells]
        + [[cfg.x0_seed, _NOISE_SALT, li, ti, mi] for li, ti in cells for mi in range(2)],
        key=str,
    )  # 1 + 9 + 18 generators, none per starting point


@pytest.mark.parametrize("cells_per_group", [None, 1, 2, 4])
@pytest.mark.parametrize("name", sorted(DIVERGING))
def test_divergence_reports_the_first_cell_in_output_order(monkeypatch, name, cells_per_group):
    cfg = DIVERGING[name]
    ref = per_cell_reference(cfg)
    steps = [[r[0] if isinstance(r, tuple) else None for r in cell[4]] for cell in ref]
    if name == "A_B":
        # an earlier cell diverging at a later step than a later cell, and
        # sign descent of cell k diverging later than gd of cell k + 1
        assert steps[:3] == [[None, None], [None, 44], [14, 27]]
    else:
        # gd of a cell diverging after its sign descent is still the one reported
        assert steps[:2] == [[38, 21], [37, 32]]
    if cells_per_group is not None:
        monkeypatch.setattr(experiments, "_STACK_BUDGET", split_budget(cfg, cells_per_group))
    lines, error, step, _ = stacked_grid(cfg)
    want_lines, want_error, want_step = reference_grid(cfg)
    assert (lines, error, step) == (want_lines, want_error, want_step)
    assert want_error.endswith("method signgd_normscaled)" if name == "A_B" else "method gd)")


def test_split_groups_give_the_same_bytes(monkeypatch):
    cfg = GridConfig(d=6, lambda_max_values=(1.0, 3.0, 20.0), theta_values=(0.0, 0.25, 0.5, 1.0),
                     T=30, repeats=5, skew_seed=1, x0_seed=8)
    one, _, _, _ = stacked_grid(cfg)
    for cells_per_group in (1, 5, 11):
        monkeypatch.setattr(experiments, "_STACK_BUDGET", split_budget(cfg, cells_per_group))
        assert stacked_grid(cfg)[0] == one


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

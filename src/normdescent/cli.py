"""Command-line front end.

Subcommands: ``analyze`` prints the smoothness report of a matrix file as
JSON, ``run`` executes one configured optimization and emits its trace as
CSV, and ``quadgrid`` emits the paired benchmark grid as CSV.  Output is
deterministic for a given config; every float is printed with 17
significant digits.  Exit codes: 0 on success, 2 on input errors
(including an output path that cannot be written), 3 on divergence (with
the partial trace, or the finished grid rows, flushed).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .analysis import analyze, smoothness_constant
from .experiments import GridConfig, _json_int, grid_csv_lines, run_quad_grid
from .matrices import MatrixFormatError, parse_matrix_text
from .norms import BlockMax, BlockPartition, Euclidean, Max, NormKind, One, kind_from_json
from .optimizers import (
    ROW_CHUNK,
    AdamConfig,
    Constant,
    DivergenceError,
    InvSqrt,
    StepSchedule,
    Trace,
    run_adam_family,
    run_normalized_sd,
    run_relaxed_nsd,
    run_signsgd,
    run_steepest_descent,
)
from .problems import (
    COSH_GUARD,
    CoshProblem,
    QuadraticProblem,
    cosh_oracle,
    make_quadratic,
    quad_noisy_oracle,
    quad_oracle,
)

TRACE_CSV_HEADER = "t,f,dual_grad_norm,dist_sq"

_STEEPEST_KINDS = {
    "gd": Euclidean(),
    "signgd_normscaled": Max(),
    "cd": One(),
}


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_lines(lines: Iterable[str], out: str | None) -> bool:
    """Writes each line, and a newline after it, to stdout or ``out`` as the
    lines arrive; prints the error and returns False when ``out`` cannot be
    written.  A reader that closes stdout early (``| head``) ends the output
    quietly."""
    if out is None:
        try:
            for line in lines:
                sys.stdout.write(line + "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the exit flush of the unwritten rest would fail again: point it at devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return True
    try:
        with open(out, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return False
    return True


_TRACE_ROW = "%d,%.17g,%.17g,%.17g"
_TRACE_ROWS = "\n".join([_TRACE_ROW] * ROW_CHUNK)


def _trace_csv_lines(trace: Trace) -> Iterator[str]:
    """The header, then the rows ROW_CHUNK at a time: one % formats a chunk."""
    yield TRACE_CSV_HEADER
    n = len(trace)
    for start in range(0, n, ROW_CHUNK):
        stop = min(start + ROW_CHUNK, n)
        part = slice(start, stop)
        dist = repeat(math.nan) if trace.dist_sq is None else trace.dist_sq[part].tolist()
        rows = zip(range(start, stop), trace.f[part].tolist(), trace.dual_grad_norm[part].tolist(), dist)
        template = _TRACE_ROWS if stop - start == ROW_CHUNK else "\n".join([_TRACE_ROW] * (stop - start))
        yield template % tuple(chain.from_iterable(rows))


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config root must be a JSON object")
    return obj


def _number(value, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name!r} must be a number, got {value!r}") from exc


def _integer(value, name: str) -> int:
    try:
        return _json_int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name!r} must be an integer, got {value!r}") from exc


def _partition(blocks) -> BlockPartition:
    """BlockPartition from a JSON list of index lists; ValueError from the
    partition's own checks (overlap, gaps, empty blocks) passes through."""
    try:
        return BlockPartition(tuple(tuple(b) for b in blocks))
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"'blocks' must be a list of index lists, got {blocks!r}") from exc


def _norm_kind(obj) -> NormKind:
    try:
        return kind_from_json(obj)
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"unrecognized norm kind: {obj!r}") from exc


def _build_problem(obj):
    """Returns (problem, oracle, dim) from the problem config object."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ConfigError("problem config must be an object with exactly one key")
    (family, spec), = obj.items()
    if family not in ("quadratic", "cosh"):
        raise ConfigError(f"unknown problem family: {family!r}")
    if not isinstance(spec, dict):
        raise ConfigError(f"{family} problem spec must be an object")
    spec = dict(spec)
    if family == "quadratic":
        try:
            d = _integer(spec.pop("d"), "d")
            lambda_max = _number(spec.pop("lambda_max"), "lambda_max")
        except KeyError as exc:
            raise ConfigError(f"quadratic problem requires {exc}") from exc
        theta = _number(spec.pop("theta", 0.0), "theta")
        seed = _integer(spec.pop("seed", 0), "seed")
        sigma = _number(spec.pop("sigma", 0.0), "sigma")
        noise_seed = spec.pop("noise_seed", None)
        if noise_seed is not None:
            noise_seed = _integer(noise_seed, "noise_seed")
        if spec:
            raise ConfigError(f"unknown quadratic keys: {sorted(spec)}")
        if not sigma >= 0.0:
            raise ConfigError("sigma must be nonnegative")
        problem = make_quadratic(d, lambda_max, theta, seed)
        if sigma > 0.0:
            stream = np.random.default_rng([seed, 1] if noise_seed is None else noise_seed)
            oracle = quad_noisy_oracle(problem, sigma, stream)
        else:
            oracle = quad_oracle(problem)
        return problem, oracle, d
    try:
        d = _integer(spec.pop("d"), "d")
    except KeyError as exc:
        raise ConfigError(f"cosh problem requires {exc}") from exc
    if spec:
        raise ConfigError(f"unknown cosh keys: {sorted(spec)}")
    problem = CoshProblem(d)
    return problem, cosh_oracle(problem), d


def _parse_schedule(obj) -> StepSchedule:
    if obj is None or obj == "inv_sqrt":
        return InvSqrt()
    if isinstance(obj, dict) and set(obj) == {"constant"}:
        return Constant(_number(obj["constant"], "constant"))
    raise ConfigError(f"unrecognized step schedule: {obj!r}")


def _smoothness_or_config(spec: dict, problem, kind: NormKind) -> float:
    if "L" in spec:
        L = _number(spec.pop("L"), "L")
        if not (math.isfinite(L) and L > 0.0):
            raise ConfigError(f"'L' must be positive and finite, got {L!r}")
        return L
    if not isinstance(problem, QuadraticProblem):
        raise ConfigError("explicit 'L' required for non-quadratic problems")
    return smoothness_constant(problem.matrix, kind)


def _build_runner(obj, problem):
    """Returns a closure (oracle, x0, T, x_star) -> Trace from the optimizer config."""
    if not isinstance(obj, dict) or "method" not in obj:
        raise ConfigError("optimizer config must be an object with a 'method' key")
    spec = dict(obj)
    method = spec.pop("method")
    if not isinstance(method, str):
        raise ConfigError(f"'method' must be a string, got {method!r}")

    if method in _STEEPEST_KINDS or method == "blocknorm":
        if method == "blocknorm":
            try:
                blocks = spec.pop("blocks")
            except KeyError as exc:
                raise ConfigError("blocknorm requires 'blocks'") from exc
            kind: NormKind = BlockMax(_partition(blocks))
        else:
            kind = _STEEPEST_KINDS[method]
        L = _smoothness_or_config(spec, problem, kind)
        if spec:
            raise ConfigError(f"unknown optimizer keys: {sorted(spec)}")
        return lambda oracle, x0, T, x_star: run_steepest_descent(
            oracle, kind, L, x0, T, x_star=x_star
        )

    if method == "nsd":
        kind = _norm_kind(spec.pop("norm", "max"))
        L = _smoothness_or_config(spec, problem, kind)
        if spec:
            raise ConfigError(f"unknown optimizer keys: {sorted(spec)}")
        return lambda oracle, x0, T, x_star: run_normalized_sd(
            oracle, kind, L, x0, T, x_star=x_star
        )

    if method == "relaxed_nsd":
        kind = _norm_kind(spec.pop("norm", "max"))
        try:
            L0 = _number(spec.pop("L0"), "L0")
        except KeyError as exc:
            raise ConfigError("relaxed_nsd requires 'L0'") from exc
        L1 = _number(spec.pop("L1", 0.0), "L1")
        eps = _number(spec.pop("eps", 1e-6), "eps")
        if not (math.isfinite(L0) and L0 > 0.0):
            raise ConfigError(f"'L0' must be positive and finite, got {L0!r}")
        if not (math.isfinite(L1) and L1 >= 0.0):
            raise ConfigError(f"'L1' must be nonnegative and finite, got {L1!r}")
        if not eps > 0.0:
            raise ConfigError(f"'eps' must be positive, got {eps!r}")
        if spec:
            raise ConfigError(f"unknown optimizer keys: {sorted(spec)}")
        return lambda oracle, x0, T, x_star: run_relaxed_nsd(
            oracle, kind, L0, L1, x0, T, eps, x_star=x_star
        )

    if method in ("signgd", "signsgd"):
        schedule = _parse_schedule(spec.pop("step", None))
        if spec:
            raise ConfigError(f"unknown optimizer keys: {sorted(spec)}")
        return lambda oracle, x0, T, x_star: run_signsgd(
            oracle, schedule, x0, T, x_star=x_star
        )

    if method in ("adam", "adam_shuffled", "adam_averaged", "momentum_sign"):
        variant = {
            "adam": "standard",
            "adam_shuffled": "shuffled",
            "adam_averaged": "averaged",
            "momentum_sign": "momentum_sign",
        }[method]
        blocks = spec.pop("blocks", None)
        partition = _partition(blocks) if blocks is not None else None
        seed = _integer(spec.pop("seed", 0), "seed")
        cfg = AdamConfig(
            step=_number(spec.pop("step", 1e-3), "step"),
            beta1=_number(spec.pop("beta1", 0.9), "beta1"),
            beta2=_number(spec.pop("beta2", 0.999), "beta2"),
            epsilon=_number(spec.pop("epsilon", 1e-8), "epsilon"),
            variant=variant,
            blocks=partition,
        )
        if spec:
            raise ConfigError(f"unknown optimizer keys: {sorted(spec)}")
        return lambda oracle, x0, T, x_star: run_adam_family(
            oracle, cfg, x0, T, np.random.default_rng(seed), x_star=x_star
        )

    raise ConfigError(f"unknown method: {method!r}")


def _resolve_x0(cfg: dict, d: int) -> np.ndarray:
    seed = _integer(cfg.get("x0_seed", 0), "x0_seed")
    if "x0" in cfg:
        try:
            x0 = np.asarray(cfg["x0"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"x0 must be a list of {d} numbers") from exc
        if x0.shape != (d,) or not np.isfinite(x0).all():
            raise ConfigError(f"x0 must be a finite vector of length {d}")
        return x0
    return np.random.default_rng(seed).standard_normal(d)


def cmd_analyze(args) -> int:
    try:
        text = Path(args.matrix).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        matrix = parse_matrix_text(text)
        report = analyze(matrix)
    except (MatrixFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.Linf_exact is None:
        print(f"warning: d={matrix.dim} exceeds the exact-norm cap; Linf_exact omitted", file=sys.stderr)
    fields = report.to_json_dict()
    body = ", ".join(f'"{k}": {_fmt(v)}' for k, v in fields.items())
    sys.stdout.write("{" + body + "}\n")
    return 0


def cmd_run(args) -> int:
    try:
        cfg = _load_json(args.config)
        known = {"problem", "optimizer", "T", "x0", "x0_seed"}
        unknown = set(cfg) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "problem" not in cfg or "optimizer" not in cfg:
            raise ConfigError("config requires 'problem' and 'optimizer'")
        with np.errstate(all="ignore"):  # an overflowing Hessian is reported as an input error
            problem, oracle, d = _build_problem(cfg["problem"])
        runner = _build_runner(cfg["optimizer"], problem)
        T = _integer(cfg.get("T", 100), "T")
        if T < 1:
            raise ConfigError("T must be positive")
        x0 = _resolve_x0(cfg, d)
        if isinstance(problem, CoshProblem) and np.abs(x0).max() > COSH_GUARD:
            raise ConfigError(f"x0 exceeds the cosh overflow guard {COSH_GUARD:g}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    x_star = np.zeros(d)
    try:
        with np.errstate(all="ignore"):  # the runner's finiteness checks report divergence
            trace = runner(oracle, x0, T, x_star)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if _write_lines(_trace_csv_lines(exc.trace), args.out) else 2
    except ValueError as exc:  # input the runner rejects once it sees the iterates
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if _write_lines(_trace_csv_lines(trace), args.out) else 2


def cmd_quadgrid(args) -> int:
    try:
        cfg = GridConfig.from_json(_load_json(args.config))
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    done = []

    def progress(cell):
        done.append(cell)
        print(
            f"cell lambda_max={cell.lambda_max:g} theta={cell.theta:g} done",
            file=sys.stderr,
        )

    status = 0
    try:
        with np.errstate(all="ignore"):  # the grid's finiteness checks report divergence
            run_quad_grid(cfg, dump_dir=args.dump_x0, progress=progress)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 3
    except ValueError as exc:  # a cell whose Hessian or smoothness constants cannot be computed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write starting points to {args.dump_x0}: {exc}", file=sys.stderr)
        return 2
    return status if _write_lines(grid_csv_lines(done), args.out) else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="norm-descent",
        description="Matrix smoothness analysis and norm-geometry descent experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="print the smoothness report of a matrix file")
    p_analyze.add_argument("matrix", help="matrix text file (line 1: d; then d rows)")
    p_analyze.set_defaults(func=cmd_analyze)

    p_run = sub.add_parser("run", help="run one configured optimization, emit trace CSV")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p_run.set_defaults(func=cmd_run)

    p_grid = sub.add_parser("quadgrid", help="run the paired benchmark grid, emit CSV")
    p_grid.add_argument("--config", required=True, help="JSON grid config file")
    p_grid.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p_grid.add_argument("--dump-x0", default=None, help="directory for per-cell x0 dumps")
    p_grid.set_defaults(func=cmd_quadgrid)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

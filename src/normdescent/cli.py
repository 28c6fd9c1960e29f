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
import gc
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ._json import REQUIRED, json_floats, json_int, json_number, read_fields
from .analysis import analyze, smoothness_constant
from .experiments import GridConfig, grid_csv_lines, run_quad_grid
from .matrices import parse_matrix_text
from .norms import BlockMax, Euclidean, Max, NormKind, One, _partition_from_json, kind_from_json
from .optimizers import (
    ROW_CHUNK,
    AdamConfig,
    DivergenceError,
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
        columns = (trace.f, trace.dual_grad_norm, trace.dist_sq)
        rows = zip(range(start, stop), *(column[part].tolist() for column in columns))
        template = _TRACE_ROWS if stop - start == ROW_CHUNK else "\n".join([_TRACE_ROW] * (stop - start))
        yield template % tuple(chain.from_iterable(rows))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ValueError(f"cannot read config {path}: {exc}") from exc


def _or_null(reader):
    """``reader`` for a field whose null means its default, None."""
    return lambda value: None if value is None else reader(value)


def _norm_kind(obj) -> NormKind:
    try:
        return kind_from_json(obj)
    except (TypeError, OverflowError) as exc:
        raise TypeError(f"must be a norm kind, got {obj!r}") from exc


def _schedule(obj) -> float | None:
    """The constant step of a step schedule, or None for 1/sqrt(t + 1)."""
    if obj is None or obj == "inv_sqrt":
        return None
    if isinstance(obj, dict):
        return read_fields(obj, "step schedule", {"constant": (json_number, REQUIRED)})["constant"]
    raise ValueError(f"unrecognized step schedule: {obj!r}")


_QUADRATIC_FIELDS = {
    "d": (json_int, REQUIRED),
    "lambda_max": (json_number, REQUIRED),
    "theta": (json_number, 0.0),
    "seed": (json_int, 0),
    "sigma": (json_number, 0.0),
    "noise_seed": (_or_null(json_int), None),
}


def _build_problem(obj):
    """Returns (problem, oracle) from the problem config object."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError("problem config must be an object with exactly one key")
    (family, spec), = obj.items()
    if family == "cosh":
        problem = CoshProblem(read_fields(spec, "cosh problem", {"d": (json_int, REQUIRED)})["d"])
        return problem, cosh_oracle(problem)
    if family != "quadratic":
        raise ValueError(f"unknown problem family: {family!r}")
    q = read_fields(spec, "quadratic problem", _QUADRATIC_FIELDS)
    if not q["sigma"] >= 0.0:
        raise ValueError("sigma must be nonnegative")
    if not math.isfinite(q["sigma"]):
        raise ValueError("sigma must be finite")
    problem = make_quadratic(q["d"], q["lambda_max"], q["theta"], q["seed"])
    if q["sigma"] == 0.0:
        return problem, quad_oracle(problem)
    stream = np.random.default_rng([q["seed"], 1] if q["noise_seed"] is None else q["noise_seed"])
    return problem, quad_noisy_oracle(problem, q["sigma"], stream)


def _runner(run, *args, **kwargs):
    """The closure (oracle, x0, T) -> Trace of ``run`` with its other
    arguments bound."""
    return lambda oracle, x0, T: run(oracle, *args, x0=x0, T=T, **kwargs)


def _with_L(run, problem, kind: NormKind, L):
    """The runner of ``run(oracle, kind, L, ...)``; without a configured
    ``L``, the quadratic's own constant in ``kind``."""
    if L is None:
        if not isinstance(problem, QuadraticProblem):
            raise ValueError("explicit 'L' required for non-quadratic problems")
        L = smoothness_constant(problem.matrix, kind)
    return _runner(run, kind, L)


def _adam(variant: str):
    return lambda problem, seed=0, **params: _runner(
        run_adam_family, AdamConfig(variant=variant, **params), rng=np.random.default_rng(seed)
    )


_L = {"L": (json_number, None)}
_NORM = {"norm": (_norm_kind, Max())}
_SIGN = ({"step": (_schedule, None)}, lambda problem, step: _runner(run_signsgd, step))
_MOMENTUM = {"step": (json_number, 1e-3), "beta1": (json_number, AdamConfig.beta1)}
_MOMENTS = {**_MOMENTUM, "beta2": (json_number, AdamConfig.beta2), "epsilon": (json_number, AdamConfig.epsilon)}
_BLOCKS = {"blocks": (_or_null(_partition_from_json), None)}

# method -> (its fields besides "method", its builder): the builder takes the
# problem and the field values as keywords and returns the method's runner.
# The runners check their own constants.
_METHODS = {
    "gd": (_L, lambda problem, L: _with_L(run_steepest_descent, problem, Euclidean(), L)),
    "signgd_normscaled": (_L, lambda problem, L: _with_L(run_steepest_descent, problem, Max(), L)),
    "cd": (_L, lambda problem, L: _with_L(run_steepest_descent, problem, One(), L)),
    "blocknorm": (
        {"blocks": (_partition_from_json, REQUIRED), **_L},
        lambda problem, blocks, L: _with_L(run_steepest_descent, problem, BlockMax(blocks), L),
    ),
    "nsd": ({**_NORM, **_L}, lambda problem, norm, L: _with_L(run_normalized_sd, problem, norm, L)),
    "relaxed_nsd": (
        {**_NORM, "L0": (json_number, REQUIRED), "L1": (json_number, 0.0), "eps": (json_number, 1e-6)},
        lambda problem, norm, L0, L1, eps: _runner(run_relaxed_nsd, norm, L0, L1, eps=eps),
    ),
    "signgd": _SIGN,
    "signsgd": _SIGN,
    "adam": (_MOMENTS, _adam("standard")),
    "adam_shuffled": ({**_MOMENTS, **_BLOCKS, "seed": (json_int, 0)}, _adam("shuffled")),
    "adam_averaged": ({**_MOMENTS, **_BLOCKS}, _adam("averaged")),
    "momentum_sign": (_MOMENTUM, _adam("momentum_sign")),
}


def _read_optimizer(obj):
    """(builder, field values) of the optimizer config object."""
    if not isinstance(obj, dict) or "method" not in obj:
        raise ValueError("optimizer config must be an object with a 'method' key")
    method = obj["method"]
    if not isinstance(method, str) or method not in _METHODS:
        raise ValueError(f"unknown method: {method!r}")
    fields, build = _METHODS[method]
    return build, read_fields({k: v for k, v in obj.items() if k != "method"}, method, fields)


_RUN_FIELDS = {
    "problem": (_build_problem, REQUIRED),
    "optimizer": (_read_optimizer, REQUIRED),
    "T": (json_int, 100),
    "x0": (json_floats, None),
    "x0_seed": (json_int, 0),
}


# Each command returns its output lines and None, or on divergence the partial
# output and the DivergenceError; bad input raises, and main picks the exit code.
def cmd_analyze(args):
    matrix = parse_matrix_text(Path(args.matrix).read_text())
    report = analyze(matrix)
    if report.Linf_exact is None:
        print(f"warning: d={matrix.dim} exceeds the exact-norm cap; Linf_exact omitted", file=sys.stderr)
    fields = report.to_json_dict()
    body = ", ".join(f'"{k}": {_fmt(v)}' for k, v in fields.items())
    return ["{" + body + "}"], None


def cmd_run(args):
    cfg = read_fields(_load_json(args.config), "config", _RUN_FIELDS)
    (problem, oracle), (build, params) = cfg["problem"], cfg["optimizer"]
    runner = build(problem, **params)
    if cfg["T"] < 1:
        raise ValueError("T must be positive")
    d = problem.dim
    if cfg["x0"] is None:
        x0 = np.random.default_rng(cfg["x0_seed"]).standard_normal(d)
    else:
        x0 = np.array(cfg["x0"])
        if x0.shape != (d,) or not np.isfinite(x0).all():
            raise ValueError(f"x0 must be a finite vector of length {d}")
    if isinstance(problem, CoshProblem) and np.abs(x0).max() > COSH_GUARD:
        raise ValueError(f"x0 exceeds the cosh overflow guard {COSH_GUARD:g}")
    try:
        trace = runner(oracle, x0, cfg["T"])
    except DivergenceError as exc:
        return _trace_csv_lines(exc.trace), exc
    return _trace_csv_lines(trace), None


def cmd_quadgrid(args):
    cfg = GridConfig.from_json(_load_json(args.config))
    done = []

    def progress(cell):
        done.append(cell)
        print(
            f"cell lambda_max={cell.lambda_max:g} theta={cell.theta:g} done",
            file=sys.stderr,
        )

    try:
        run_quad_grid(cfg, dump_dir=args.dump_x0, progress=progress)
    except DivergenceError as exc:
        return grid_csv_lines(done), exc
    except OSError as exc:
        raise OSError(f"cannot write starting points to {args.dump_x0}: {exc}") from exc
    return grid_csv_lines(done), None


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
    """Runs one command and returns its exit code: 0, or 2 on an input error
    (nothing written to stdout), or 3 on divergence (the partial output
    written).  Overflow warnings are silenced: the checks that follow them
    report an input error or a divergence."""
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            lines, divergence = args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if divergence is not None:
        print(f"error: {divergence}", file=sys.stderr)
    if not _write_lines(lines, getattr(args, "out", None)):
        return 2
    return 0 if divergence is None else 3


def entry() -> None:
    """The process entry of ``norm-descent`` and ``python -m normdescent.cli``.

    Moves the objects the imports made into the collector's permanent
    generation, so the full collections at interpreter exit no longer walk
    them (about 20 ms a process), then exits with ``main``'s code through
    normal shutdown, which flushes stdout.  ``main`` leaves the collector
    alone: in-process callers keep their own collector state.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()

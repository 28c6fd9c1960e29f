"""Command-line front end.

Subcommands: ``analyze`` prints the smoothness report of a matrix file as
JSON, ``run`` executes one configured optimization and emits its trace as
CSV, and ``quadgrid`` emits the paired benchmark grid as CSV.  Output is
deterministic for a given config; every float is printed with 17
significant digits.  Exit codes: 0 on success, 2 on input errors
(including an output path that cannot be written), 3 on divergence (with
the partial trace, or the finished grid rows, flushed).

This module is the one reader of the JSON configs and the one writer:
the library takes and returns Python values.  Every config object is
read by ``read_fields`` from a table of its keys; a norm kind and a
block partition have readers of their own.  A config field that holds a number takes a JSON
number: never a string, which ``float`` and ``int`` would parse, and never
a boolean, which Python counts as an integer.  An integer field also takes
an integral number such as ``5.0``.
"""

from __future__ import annotations

import gc

# Run as a program (python -m normdescent.cli), the module loads numpy and the
# layers with the cyclic collector off: their objects live for the whole
# process, and entry() freezes them before it turns the collector back on.
if __name__ == "__main__":
    gc.disable()

import argparse
import os
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

# One OpenBLAS thread in a CLI process, unless the user sets another count:
# LAPACK's eigensolvers round differently with more threads at d >= 256.
# A process that loaded numpy before this module keeps its own setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .analysis import analyze, smoothness_constant
from .experiments import GridCell, GridConfig, cell_starts, run_quad_grid
from .matrices import SymMatrix, parse_matrix_text
from .norms import BlockMax, BlockPartition, Euclidean, Max, NormKind, One, WeightedDiag
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
    cosh_oracle,
    make_quadratic,
    quad_noisy_oracle,
    quad_oracle,
)

TRACE_CSV_HEADER = "t,f,dual_grad_norm,dist_sq"
GRID_CSV_HEADER = ",".join(GridCell.__annotations__)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def grid_csv_lines(cells: Iterable[GridCell]) -> list[str]:
    """The grid CSV: the header, then one line per cell of its fields in order."""
    return [GRID_CSV_HEADER] + [",".join(_fmt(getattr(c, name)) for name in GridCell.__annotations__) for c in cells]


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


def _trace_csv_lines(trace: Trace) -> Iterator[str]:
    """The header, then the rows ROW_CHUNK at a time: one % formats a chunk."""
    yield TRACE_CSV_HEADER
    n = len(trace)
    for start in range(0, n, ROW_CHUNK):
        stop = min(start + ROW_CHUNK, n)
        part = slice(start, stop)
        columns = (trace.f, trace.dual_grad_norm, trace.dist_sq)
        rows = zip(range(start, stop), *(column[part].tolist() for column in columns))
        yield "\n".join([_TRACE_ROW] * (stop - start)) % tuple(chain.from_iterable(rows))


def _load_json(path: str):
    import json  # only run and quadgrid read a config: analyze never loads json

    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ValueError(f"cannot read config {path}: {exc}") from exc


REQUIRED = object()  # the default of a key the object must hold


def is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_number(value) -> float:
    """float(value) for a JSON number; anything else raises TypeError, and an
    integer beyond the float range OverflowError."""
    if not is_json_number(value):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def json_int(value) -> int:
    """int(value) for a JSON integer or an integral number such as 5.0;
    anything else, a fraction included, raises TypeError."""
    if not is_json_number(value) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def _int_from(low: int, what: str):
    """The reader of an integer field of at least ``low``: json_int(value),
    raising TypeError ("must be a <what> integer") on a smaller value."""

    def reader(value) -> int:
        n = json_int(value)
        if n < low:
            raise TypeError(f"must be a {what} integer, got {value!r}")
        return n

    return reader


_seed = _int_from(0, "nonnegative")


def json_floats(value) -> tuple[float, ...]:
    """The floats of a JSON list of numbers; anything else raises TypeError,
    and an integer beyond the float range OverflowError."""
    if not isinstance(value, list) or not all(map(is_json_number, value)):
        raise TypeError(f"must be a list of numbers, got {value!r}")
    return tuple(map(float, value))


def read_fields(obj, what: str, fields: dict) -> dict:
    """The values of a config object, one per key of ``fields``.

    ``fields`` maps each key to ``(reader, default)``: a key the object
    holds is read by ``reader(value)``, which raises TypeError or
    OverflowError on a bad value (its message says what the value must
    be); a key it lacks takes ``default``, or is an error when the default
    is REQUIRED.  A non-object, an unknown key, a missing key or a bad
    value raises ValueError naming ``what`` or the key; a reader's own
    ValueError passes through.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    unknown = obj.keys() - fields.keys()
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for key, (reader, default) in fields.items():
        if key not in obj:
            if default is REQUIRED:
                raise ValueError(f"{what} requires {key!r}")
            values[key] = default
            continue
        try:
            values[key] = reader(obj[key])
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"{key!r} {exc}") from exc
    return values


def _or_null(reader):
    """``reader`` for a field whose null means its default, None."""
    return lambda value: None if value is None else reader(value)


def _partition(blocks) -> BlockPartition:
    """BlockPartition from a JSON list of index lists, else TypeError; the
    partition's own ValueError (overlap, gaps, empty blocks) passes through."""
    try:
        indices = tuple(tuple(map(json_int, b)) for b in blocks)
    except TypeError as exc:
        raise TypeError(f"must be a list of index lists, got {blocks!r}") from exc
    return BlockPartition(indices)


def _norm_kind(obj) -> NormKind:
    """The norm kind of "euclidean", "max", "one", {"weighted": [w, ...]} or
    {"blockmax": [[i, ...], ...]}.  Any other value raises ValueError, and
    so does a kind's own check of its weights or blocks; a mistyped weight
    or partition raises TypeError."""
    try:
        if obj == "euclidean":
            return Euclidean()
        if obj == "max":
            return Max()
        if obj == "one":
            return One()
        if isinstance(obj, dict) and set(obj) == {"weighted"}:
            return WeightedDiag(tuple(map(json_number, obj["weighted"])))
        if isinstance(obj, dict) and set(obj) == {"blockmax"}:
            return BlockMax(_partition(obj["blockmax"]))
    except (TypeError, OverflowError) as exc:
        raise TypeError(f"must be a norm kind, got {obj!r}") from exc
    raise ValueError(f"unrecognized norm kind: {obj!r}")


def _schedule(obj) -> float | None:
    """The constant step of a step schedule, or None for 1/sqrt(t + 1)."""
    if obj is None or obj == "inv_sqrt":
        return None
    if isinstance(obj, dict):
        return read_fields(obj, "step schedule", {"constant": (json_number, REQUIRED)})["constant"]
    raise ValueError(f"unrecognized step schedule: {obj!r}")


_PROBLEM_FIELDS = {
    "cosh": {"d": (json_int, REQUIRED)},
    "quadratic": {
        "d": (json_int, REQUIRED),
        "lambda_max": (json_number, REQUIRED),
        "theta": (json_number, 0.0),
        "seed": (_seed, 0),
        "sigma": (json_number, 0.0),
        "noise_seed": (_or_null(_seed), None),
    },
}


def _read_problem(obj) -> tuple[str, dict]:
    """(family, field values) of the problem config object.  Nothing is
    built yet: a quadratic costs a skew draw and eigensolves."""
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError("problem config must be an object with exactly one key")
    (family, spec), = obj.items()
    if family not in _PROBLEM_FIELDS:
        raise ValueError(f"unknown problem family: {family!r}")
    return family, read_fields(spec, f"{family} problem", _PROBLEM_FIELDS[family])


def _build_problem(family: str, q: dict):
    """Returns (problem, oracle) of the field values ``q`` of a ``family`` problem."""
    if family == "cosh":
        problem = CoshProblem(q["d"])
        return problem, cosh_oracle(problem)
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
        if not isinstance(problem, SymMatrix):
            raise ValueError("explicit 'L' required for non-quadratic problems")
        L = smoothness_constant(problem, kind)
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
_BLOCKS = {"blocks": (_or_null(_partition), None)}

# method -> (its fields besides "method", its builder): the builder takes the
# problem and the field values as keywords and returns the method's runner.
# The runners check their own constants.
_METHODS = {
    "gd": (_L, lambda problem, L: _with_L(run_steepest_descent, problem, Euclidean(), L)),
    "signgd_normscaled": (_L, lambda problem, L: _with_L(run_steepest_descent, problem, Max(), L)),
    "cd": (_L, lambda problem, L: _with_L(run_steepest_descent, problem, One(), L)),
    "blocknorm": (
        {"blocks": (_partition, REQUIRED), **_L},
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
    "adam_shuffled": ({**_MOMENTS, **_BLOCKS, "seed": (_seed, 0)}, _adam("shuffled")),
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
    "optimizer": (_read_optimizer, REQUIRED),
    "T": (_int_from(1, "positive"), 100),
    "x0": (json_floats, None),
    "x0_seed": (_seed, 0),
    "problem": (_read_problem, REQUIRED),
}

_GRID_FIELDS = {
    "d": (json_int, REQUIRED),
    "lambda_max_values": (json_floats, GridConfig.lambda_max_values),
    "theta_values": (json_floats, GridConfig.theta_values),
    "T": (_int_from(1, "positive"), GridConfig.T),
    "repeats": (_int_from(1, "positive"), GridConfig.repeats),
    "skew_seed": (_seed, GridConfig.skew_seed),
    "x0_seed": (_seed, GridConfig.x0_seed),
    "sigma": (json_number, GridConfig.sigma),
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
    (family, spec), (build, params) = cfg["problem"], cfg["optimizer"]
    d, x0 = spec["d"], cfg["x0"]
    if x0 is not None:  # checked before the problem is built
        x0 = np.array(x0)
        if x0.shape != (d,) or not np.isfinite(x0).all():
            raise ValueError(f"x0 must be a finite vector of length {d}")
        if family == "cosh" and np.abs(x0).max(initial=0.0) > COSH_GUARD:
            raise ValueError(f"x0 exceeds the cosh overflow guard {COSH_GUARD:g}")
    problem, oracle = _build_problem(family, spec)
    if x0 is None:
        x0 = np.random.default_rng(cfg["x0_seed"]).standard_normal(d)
    runner = build(problem, **params)  # a method's own constant can cost an eigensolve
    try:
        trace = runner(oracle, x0, cfg["T"])
    except DivergenceError as exc:
        return _trace_csv_lines(exc.trace), exc
    return _trace_csv_lines(trace), None


def _dump_x0(cfg: GridConfig, dump_dir: str, cells: int) -> None:
    """Makes the directory ``dump_dir`` and writes in it the starting points
    of the grid's first ``cells`` cells, one CSV file per cell."""
    try:
        Path(dump_dir).mkdir(parents=True, exist_ok=True)
        for li, ti, x0 in islice(cell_starts(cfg), cells):
            name = f"x0_lam{_fmt(cfg.lambda_max_values[li])}_theta{_fmt(cfg.theta_values[ti])}.csv"
            Path(dump_dir, name).write_text("".join(",".join(map(_fmt, row)) + "\n" for row in x0.tolist()))
    except OSError as exc:
        raise OSError(f"cannot write starting points to {dump_dir}: {exc}") from exc


def cmd_quadgrid(args):
    """The grid CSV of the finished cells.  ``--dump-x0`` makes its directory
    before the grid runs and writes the starting points after it."""
    cfg = GridConfig(**read_fields(_load_json(args.config), "grid config", _GRID_FIELDS))
    done = []

    def progress(cell):
        done.append(cell)
        print(f"cell lambda_max={cell.lambda_max:g} theta={cell.theta:g} done", file=sys.stderr)

    if args.dump_x0 is not None:
        _dump_x0(cfg, args.dump_x0, 0)  # only makes the directory
    divergence = None
    try:
        run_quad_grid(cfg, progress=progress)
    except DivergenceError as exc:
        divergence = exc
    if args.dump_x0 is not None:
        _dump_x0(cfg, args.dump_x0, len(done) + (divergence is not None))
    return grid_csv_lines(done), divergence


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
    them (about 20 ms a process), turns the collector on (run as a program,
    the module imported with it off), then exits with ``main``'s code through
    normal shutdown, which flushes stdout.  ``main`` leaves the collector
    alone: in-process callers keep their own collector state.
    """
    gc.freeze()
    gc.enable()
    sys.exit(main())


if __name__ == "__main__":
    entry()

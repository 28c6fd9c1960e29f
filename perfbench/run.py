"""Benchmark of the ``norm-descent`` command line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 40 --trace 0

The seed generates every config and matrix file of the workload (see
``workloads.py``); the program receives only those files.  Each pass runs
every invocation of the workload once.  Passes repeat while the next one
would end within ``--seconds``, and at least ``MIN_PASSES`` times within
``PASS_BUDGET_S``.  The first pass's outputs are checked against
independent references (``checks.py``), and every later pass must
reproduce their sha256.

``--trace 0`` runs each invocation as a ``python -m normdescent.cli`` child
and reports the end-to-end metrics.  Their times are scaled to a CPU in a
reference state by a speed sample taken while each child runs (see
``harness.py``); the unscaled ``wall_raw_s`` and ``setup_raw_s`` are
printed too.  ``--trace 1`` runs the invocations in-process, alternating
plain passes with passes traced by ``layertrace.py``, and reports the
per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  A human-readable report goes to stdout,
and a JSON report (and, traced, the spans) goes to ``perfbench/out/``.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import harness

harness.pin_blas_threads(os.environ)  # before numpy loads, here and in every child

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MIN_PASSES = 2  # run even past --seconds, unless the run has taken PASS_BUDGET_S
PASS_BUDGET_S = 60.0
SETUP_PER_PASS = 2
PROGRAM = [sys.executable, "-m", "normdescent.cli"]
IMPORT_ONLY = [sys.executable, "-c", "import normdescent.cli"]


# ------------------------------------------------------------ host and env

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((128, 128)) / 16.0


def host_probe() -> float:
    """Seconds taken by a fixed numpy and pure-Python workload.

    It only tells slow phases of a shared machine from regressions of the
    program; no metric is scaled by it (``harness.py`` samples the speed
    that scales the end-to-end times).
    """
    t0 = time.perf_counter()
    b = _PROBE_MATRIX
    for _ in range(20):
        b = np.tanh(b @ _PROBE_MATRIX)
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def environment() -> dict:
    """Machine, interpreter, numpy and BLAS settings of this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in harness.BLAS_THREAD_VARS},
    }


# ------------------------------------------------------------------ checks

def evaluate(inv: workloads.Invocation, result: harness.ChildResult, expected_sha: str | None) -> list[str]:
    """Problems of one invocation: exit code, traceback, and its output.

    Without ``expected_sha`` (first pass) the output is checked against
    the reference; later passes must reproduce the first pass's bytes.
    """
    problems = []
    if result.returncode != 0:
        problems.append(f"exit code {result.returncode}")
    if "Traceback" in result.stderr or "Traceback" in result.stdout:
        problems.append("traceback printed")
    if expected_sha is None:
        problems += inv.check(result.stdout)
    elif result.sha256 != expected_sha:
        problems.append("stdout differs from the first pass")
    return problems


class Ledger:
    """Attempted and failed invocations, with the first pass's hashes."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.expected: list[str | None] = [None] * len(workload.invocations)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, results: list[harness.ChildResult], tag: str) -> list[dict]:
        """Check one pass's results and return their rows for the report."""
        rows = []
        for i, (inv, res) in enumerate(zip(self.workload.invocations, results)):
            problems = evaluate(inv, res, self.expected[i])
            if self.expected[i] is None:
                self.expected[i] = res.sha256
            self.note([f"{tag} {inv.label}: {p}" for p in problems])
            rows.append({
                "label": inv.label, "returncode": res.returncode, "wall_s": res.wall_s,
                "cpu_s": res.cpu_s, "maxrss_mb": res.maxrss_mb, "scale": res.scale, "sha256": res.sha256,
                "stdout_bytes": len(res.stdout.encode()), "problems": problems,
            })
        return rows

    def note(self, problems: list[str]) -> None:
        """Count one attempted invocation, failed when it has problems."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems[: max(0, 20 - len(self.problems))]


# ---------------------------------------------------------- untraced runs

@dataclass
class Outcome:
    """Samples of one run; each metric reports the median of its samples."""

    ledger: Ledger
    samples: dict[str, list]
    sample_of: dict[str, str]  # metric -> what one sample is
    details: dict  # written to the JSON report only
    spans: dict | None = None


def measure(workload: workloads.Workload, seconds: float, workdir: Path) -> Outcome:
    """End-to-end metrics from child processes, with tracing off."""
    ledger = Ledger(workload)
    with harness.Launcher(harness.child_env(SRC), workdir) as launcher:
        launcher.run(IMPORT_ONLY)  # warm-up: writes the byte-code cache
        setup, passes = run_passes(workload, seconds, launcher, ledger)
    for res in setup:
        ledger.note([f"set-up import: exit code {res.returncode}"] if res.returncode else [])

    samples = {name: [p[name] for p in passes]
               for name in ("wall_s", "cpu_s", "work_per_s", "peak_rss_mb", "wall_raw_s")}
    samples["setup_s"] = [r.wall_s * r.scale for r in setup]
    samples["setup_raw_s"] = [r.wall_s for r in setup]
    samples["host.probe_s"] = [p["probe_s"] for p in passes]
    sample_of = dict.fromkeys(samples, "passes")
    sample_of.update({"setup_s": "imports", "setup_raw_s": "imports"})
    details = {
        "work_unit": workload.work_unit,
        "passes": passes,
        "setup": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "scale": r.scale, "returncode": r.returncode}
                  for r in setup],
    }
    return Outcome(ledger, samples, sample_of, details)


def run_passes(workload: workloads.Workload, seconds: float, launcher: harness.Launcher,
               ledger: Ledger) -> tuple[list[harness.ChildResult], list[dict]]:
    """Timed passes, each preceded by set-up samples and the host probe.

    A pass starts only if it would end within ``seconds`` at the previous
    pass's duration.  Set-up samples are spread over the run, so that one
    slow phase of the machine does not set their median.
    """
    setup, passes = [], []
    start, pass_s = time.perf_counter(), 0.0

    def more() -> bool:
        elapsed = time.perf_counter() - start
        return elapsed + pass_s <= seconds or (len(passes) < MIN_PASSES and elapsed < PASS_BUDGET_S)

    while more():
        pass_start = time.perf_counter()
        setup += [launcher.run(IMPORT_ONLY) for _ in range(SETUP_PER_PASS)]
        probe = host_probe()
        results = [launcher.run(PROGRAM + inv.args) for inv in workload.invocations]
        wall = sum(r.wall_s * r.scale for r in results)
        work = sum(inv.work(res.stdout) for inv, res in zip(workload.invocations, results))
        passes.append({
            "probe_s": probe,
            "wall_s": wall,
            "cpu_s": sum(r.cpu_s * r.scale for r in results),
            "peak_rss_mb": max(r.maxrss_mb for r in results),
            "work": work,
            "work_per_s": work / wall,
            "wall_raw_s": sum(r.wall_s for r in results),
            "invocations": ledger.record(results, f"pass {len(passes)}"),
        })
        pass_s = time.perf_counter() - pass_start
    return setup, passes


# ------------------------------------------------------------ traced runs

def call_in_process(cli, args: list[str]) -> harness.ChildResult:
    """One invocation of ``cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the harness reports the failure and carries on
            code = 1
            traceback.print_exc()
    return harness.ChildResult(
        returncode=code, wall_s=time.perf_counter() - t0, cpu_s=time.process_time() - c0,
        maxrss_mb=0.0, stdout=out.getvalue(), stderr=err.getvalue(),
    )


def trace_layers(workload: workloads.Workload, seconds: float, workdir: Path) -> Outcome:
    """Per-layer metrics from in-process passes, alternating plain and traced.

    A pair of passes starts only if it can end within ``seconds``; the first
    pair always runs.
    """
    os.environ.pop("NORM_DESCENT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import normdescent.cli as cli

    ledger = Ledger(workload)
    plain, traced, probes, counts, times, spans = [], [], [], [], [], None
    start, pair_s = time.perf_counter(), 0.0
    while not traced or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        probes.append(host_probe())
        results = [call_in_process(cli, inv.args) for inv in workload.invocations]
        ledger.record(results, f"plain pass {len(plain)}")
        plain.append(sum(r.wall_s for r in results))

        tracer = layertrace.Tracer()
        tracer.install()
        try:
            results = [call_in_process(cli, inv.args) for inv in workload.invocations]
        finally:
            tracer.uninstall()
        ledger.record(results, f"traced pass {len(traced)}")
        traced.append(sum(r.wall_s for r in results))
        pair_s = time.perf_counter() - pair_start
        c, t = tracer.metrics(sum(len(r.stdout.encode()) for r in results), len(results))
        counts.append(c)
        times.append(t)
        if spans is None:
            spans = {"spans": tracer.span_records(), "functions": {
                name: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2]}
                for name, s in sorted(tracer.stats.items())
            }}

    if any(c != counts[0] for c in counts):
        ledger.problems.append("call counts differ between traced passes")
    samples = {name: [value] for name, value in counts[0].items()}
    samples.update({name: [t[name] for t in times] for name in times[0]})
    samples["trace.overhead_ratio"] = [t / p for t, p in zip(traced, plain)]
    samples["host.probe_s"] = probes
    sample_of = dict.fromkeys(samples, "traced passes")
    sample_of.update(dict.fromkeys(counts[0], "traced pass (equal in all)"))
    sample_of.update({"trace.overhead_ratio": "pass pairs", "host.probe_s": "pass pairs"})
    details = {"plain_wall_s": plain, "traced_wall_s": traced, "counts_per_traced_pass": counts}
    return Outcome(ledger, samples, sample_of, details, spans)


# ---------------------------------------------------------------- report

def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def summarize(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes (harness self-test)")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "normdescent" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/normdescent or BENCHMARK.json; run from a norm-descent checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        workload = workloads.build(args.workload, args.seed, workdir, args.small)
        run = (trace_layers if args.trace else measure)(workload, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = run.ledger
    stats = {name: summarize(v) for name, v in run.samples.items()}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({"host.probe_s": "s", "wall_raw_s": "s", "setup_raw_s": "s"})
    if not args.trace:
        ratio = ledger.failed / ledger.attempted
        stats["failed_ratio"] = {"median": ratio, "q1": ratio, "q3": ratio, "n": ledger.attempted}
        run.sample_of["failed_ratio"] = "invocations"
        units["failed_ratio"] = "ratio"
    correct = ledger.failed == 0 and not ledger.problems
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "small": args.small,
        "env": environment(), "correct": correct, "attempted": ledger.attempted,
        "failed": ledger.failed, "problems": ledger.problems,
        "metrics": {name: dict(s, unit=units[name]) for name, s in stats.items()},
        **run.details,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if run.spans is not None:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(run.spans) + "\n")

    env = report["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {ledger.attempted}  failed {ledger.failed}  work unit {workload.work_unit}")
    print(f"host: nproc {env['nproc']} ({env['cpus_usable']} usable), python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']} with 1 thread, NORM_DESCENT_THREADS unset")
    for p in ledger.problems:
        print(f"problem: {p}")
    for name, s in stats.items():
        print(f"{name:36s} {_fmt(s['median']):14s} {units[name]:6s} median of n={s['n']} "
              f"{run.sample_of[name]}  (q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])})")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": stats[m["name"]]["median"], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

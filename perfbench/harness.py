"""Child processes of the program and their resource usage.

Each invocation of the program is one child process.  Its wall time is
taken around start and reap, and its CPU time and peak RSS come from
``os.wait4`` for that child alone (``RUSAGE_CHILDREN`` would report the
running maximum RSS over every child reaped so far).

A child's ``ru_maxrss`` starts from the RSS high-water mark of the process
it was started from, so children are not started by the benchmark process
itself, which holds numpy, scipy and the references.  ``Launcher`` starts
them from a helper process that runs this file with the standard library
only.

The vCPUs of a shared host switch between a fast and a ~1.5x slower state
for seconds to minutes, longer than a benchmark run, so the same code's
median wall time differs by up to 40% between runs.  The helper therefore
pins itself, and so every child, to one CPU, and while a child runs a
thread of the helper times a fixed pure-Python sample on that CPU every
``SAMPLE_INTERVAL_S`` (under 1% of the CPU).  The sample's mean CPU time
tells the speed of the CPU over the child's whole run; ``ChildResult.scale``
turns the child's times into times on a CPU in the reference state.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 100.0  # keeps a run with a hung child within 180 s
SAMPLE_INTERVAL_S = 0.05
# Mean speed sample to which child times are scaled: about the median
# sample on a 2 GHz Xeon vCPU of a shared host, between its fast and slow states.
REFERENCE_SAMPLE_S = 0.18e-3


def pin_blas_threads(env) -> None:
    """Pin every BLAS thread pool to one thread; a process must do this to
    its own environment before numpy loads."""
    for var in BLAS_THREAD_VARS:
        env[var] = "1"


def child_env(src: Path) -> dict[str, str]:
    """Environment of every child: absolute ``src`` path, one BLAS thread,
    and no ``NORM_DESCENT_THREADS`` override."""
    env = {k: v for k, v in os.environ.items() if k != "NORM_DESCENT_THREADS"}
    pin_blas_threads(env)
    env["PYTHONPATH"] = str(src)
    return env


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    sample_s: float = REFERENCE_SAMPLE_S  # mean speed sample while the child ran

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout.encode()).hexdigest()

    @property
    def scale(self) -> float:
        """Factor from this child's times to times on a CPU in the reference state."""
        return REFERENCE_SAMPLE_S / self.sample_s


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float):
        self.a, self.b = a, 0.5 * a

    def at(self, x: float) -> float:
        return self.a * x + self.b


# Method calls and attribute loads over a few hundred objects: of the loops
# tried, the one whose slowdown tracked the program's most closely.
_SAMPLE_POINTS = [_Point(i / 400) for i in range(400)]


def _speed_sample() -> float:
    """CPU seconds this thread takes for a fixed pure-Python loop."""
    t0 = time.thread_time()
    acc = 0.0
    for _ in range(4):
        for point in _SAMPLE_POINTS:
            acc += point.at(0.3)
    return time.thread_time() - t0


class _Sampler(threading.Thread):
    """Takes a speed sample every ``SAMPLE_INTERVAL_S`` until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        while True:
            self.samples.append(_speed_sample())
            if self.done.wait(SAMPLE_INTERVAL_S):
                return

    def stop(self) -> float:
        """Stop sampling and return the mean sample."""
        self.done.set()
        self.join()
        return sum(self.samples) / len(self.samples)


def _spawn(argv: list[str], workdir: Path) -> dict:
    """Run one child to completion with stdout and stderr sent to files."""
    with open(workdir / "child.out", "wb") as out, open(workdir / "child.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=workdir)
        sampler = _Sampler()
        sampler.start()
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            sample = sampler.stop()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        "sample_s": sample,
    }


def _serve() -> None:
    """Helper loop: one JSON argv per input line, one JSON result per output line."""
    workdir = Path.cwd()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in sys.stdin:
        print(json.dumps(_spawn(json.loads(line), workdir)), flush=True)


class Launcher:
    """Starts children from the helper process; use as a context manager."""

    def __init__(self, env: dict[str, str], workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=workdir,
        )

    def run(self, argv: list[str]) -> ChildResult:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("child launcher exited")
        return ChildResult(
            **json.loads(line),
            stdout=(self.workdir / "child.out").read_text(encoding="utf-8", errors="replace"),
            stderr=(self.workdir / "child.err").read_text(encoding="utf-8", errors="replace"),
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


if __name__ == "__main__":
    _serve()

"""In-process tracing of the package's layers, from outside the package.

Each layer is a module under ``normdescent``.  ``Tracer.install`` wraps
the layer's public functions (its ``__all__``; ``main`` for ``cli``) and
replaces every binding of each original in every loaded ``normdescent``
module, because the modules import one another's functions with
``from .x import f``.  ``Tracer.uninstall`` puts the originals back.

Every wrapped call adds to per-function counts, inclusive time and self
time (inclusive time minus the time of wrapped calls made inside it).
Calls of the per-step functions in ``HOT`` are only counted; every other
call also records a span (name, start, end, parent span) kept in memory
until the run writes it out.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter

LAYERS = ("matrices", "norms", "analysis", "problems", "optimizers", "experiments", "cli")

# Called once per optimizer step or more: counted and timed, no span.
HOT = frozenset({
    "norms.sign_unit", "norms.norm", "norms.dual_norm", "norms.steepest_op",
    "norms.gradient_density", "problems.quad_eval", "problems.noisy_grad",
    "problems.cosh_eval", "problems.oracle", "optimizers.schedule_value",
    "optimizers.adam_gamma",
})
# Private boundaries wrapped as well: a grid cell.
EXTRA = {"experiments": ("_run_cell",)}
ORACLE_FACTORIES = ("quad_oracle", "quad_noisy_oracle", "cosh_oracle")


def layer_functions(package: str = "normdescent"):
    """(layer, name, function) for every function the tracer wraps."""
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        names = ("main",) if layer == "cli" else tuple(mod.__all__) + EXTRA.get(layer, ())
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield layer, name, fn


class Tracer:
    """Per-function counts and times, and spans, of one traced pass."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.counts: Counter = Counter()  # steps, sign_vectors
        self.cell_s: list[float] = []
        self._stack = [[0.0, -1]]  # frames: [time in wrapped children, span index]
        self._patched: list = []

    def wrap(self, name: str, fn, on_exit=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        keep_span = name not in HOT

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                parent[0] += dur
                if keep_span:
                    spans[sid] = (name, t0, t1, parent[1])
            if on_exit is not None:
                result = on_exit(args, result, dur)
            return result

        return wrapper

    def _on_exit(self, layer: str, name: str):
        """Counting hook of a wrapped function, or None."""
        if layer == "optimizers" and name.startswith("run_"):
            def steps(args, trace, dur):
                self.counts["steps"] += len(trace) - 1
                return trace
            return steps
        if name == "linf_bruteforce":
            def sign_vectors(args, value, dur):
                self.counts["sign_vectors"] += 1 << args[0].dim
                return value
            return sign_vectors
        if name == "_run_cell":
            def cell(args, value, dur):
                self.cell_s.append(dur)
                return value
            return cell
        if name in ORACLE_FACTORIES:
            return lambda args, oracle, dur: self.wrap("problems.oracle", oracle)
        return None

    def install(self, package: str = "normdescent") -> None:
        replacement = {
            id(fn): (fn, self.wrap(f"{layer}.{name}", fn, self._on_exit(layer, name)))
            for layer, name, fn in layer_functions(package)
        }
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # ------------------------------------------------------------- results

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def metrics(self, stdout_bytes: int, invocations: int) -> tuple[dict, dict]:
        """(counts, times) of one traced pass, keyed by per-layer metric name."""
        runs = [n for n in self.stats if n.startswith("optimizers.run_")]
        run_incl = sum(self.inclusive_s(n) for n in runs)
        linf_incl = self.inclusive_s("analysis.linf_bruteforce")
        steps, vectors = self.counts["steps"], self.counts["sign_vectors"]
        counts = {
            "optimizers.trajectories": sum(self.calls(n) for n in runs),
            "optimizers.steps": steps,
            "norms.steepest_op.calls": self.calls("norms.steepest_op"),
            "norms.dual_norm.calls": self.calls("norms.dual_norm"),
            "norms.sign_unit.calls": self.calls("norms.sign_unit"),
            "problems.oracle_calls": self.calls("problems.oracle"),
            "analysis.linf_bruteforce.calls": self.calls("analysis.linf_bruteforce"),
            "analysis.sign_vectors": vectors,
            "matrices.eigh.calls": self.calls("matrices.eigh"),
            "experiments.cells": len(self.cell_s),
            "cli.stdout_bytes": stdout_bytes,
            "cli.invocations": invocations,
        }
        times = {f"{layer}.self_s": 0.0 for layer in LAYERS if layer != "cli"}
        for name, (_, _, own) in self.stats.items():
            layer = name.split(".")[0]
            if layer != "cli":
                times[f"{layer}.self_s"] += own
        times.update({
            "optimizers.run.self_s": sum(self.self_s(n) for n in runs),
            "optimizers.steps_per_s": steps / run_incl if run_incl else 0.0,
            "analysis.sign_vectors_per_s": vectors / linf_incl if linf_incl else 0.0,
            "experiments.cell_s_p50": statistics.median(self.cell_s) if self.cell_s else 0.0,
            "experiments.cell_s_p75": _upper_quartile(self.cell_s),
        })
        for name in (
            "norms.steepest_op", "norms.dual_norm", "norms.sign_unit",
            "problems.quad_eval", "problems.noisy_grad", "problems.cosh_eval",
            "problems.make_quadratic", "analysis.linf_bruteforce", "analysis.analyze",
            "matrices.eigh", "matrices.exp_skew", "matrices.rotated_hessian",
            "matrices.parse_matrix_text", "experiments.run_quad_grid", "cli.main",
        ):
            times[f"{name}.self_s"] = self.self_s(name)
        return counts, times

    def span_records(self) -> list[dict]:
        t0 = min((s[1] for s in self.spans if s), default=0.0)
        return [
            {"name": n, "start": a - t0, "end": b - t0, "parent": p}
            for n, a, b, p in (s for s in self.spans if s)
        ]


def _upper_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4)[2]

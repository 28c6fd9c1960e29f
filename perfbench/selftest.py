"""Self-test of the benchmark harness at reduced size.

Run from the root of a source checkout::

    python3 perfbench/selftest.py

It asserts that every workload, untraced and traced, prints every metric of
``BENCHMARK.json`` by name with its unit (and ``failed_ratio`` untraced);
that traced call counts repeat exactly and match the reduced grid's size;
that the correctness check rejects perturbed outputs and a nonzero exit;
and that the benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import harness
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, f"{run.BENCH_DIR.name}/run.py"]  # relative to the checkout root


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", "7", "--seconds", "0.5",
                   "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_report(workload: str, trace: int) -> dict:
    code, lines = bench(workload, trace)
    assert code == 0, f"{workload} trace {trace}: exit code {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], result["metrics"].keys()
    printed = {line.split()[0]: line.split() for line in lines[:-1] if line.strip()}
    for m in wanted + ([] if trace else [{"name": "failed_ratio", "unit": "ratio"}]):
        assert result["metrics"].get(m["name"], m)["unit"] == m["unit"], m
        words = printed.get(m["name"])
        assert words is not None and words[2] == m["unit"] and "median" in words, (m, words)
        if m["name"] == "failed_ratio":
            assert float(words[1]) == 0.0, words
    return result["metrics"]


def check_counts() -> None:
    counts = [check_report("grid", 1) for _ in range(2)]
    names = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert all(counts[0][n] == counts[1][n] for n in names), "traced counts differ between runs"
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        cfg = json.loads(Path(workloads.build("grid", 7, Path(tmp), small=True)
                              .invocations[0].args[2]).read_text())
    cells = len(cfg["lambda_max_values"]) * len(cfg["theta_values"])
    trajectories = cells * cfg["repeats"] * 2
    expected = {
        "experiments.cells": cells,
        "matrices.eigh.calls": 2 * cells + 1,  # is_psd and analyze per cell, one skew
        "analysis.linf_bruteforce.calls": cells,
        "optimizers.trajectories": trajectories,
        "optimizers.steps": trajectories * cfg["T"],
        "problems.oracle_calls": trajectories * (cfg["T"] + 1),
        "norms.sign_unit.calls": trajectories // 2 * cfg["T"],
    }
    for name, value in expected.items():
        assert counts[0][name]["value"] == value, (name, counts[0][name], value)


def perturb_number(text: str, line: int, field: int, scale: float = 1.001) -> str:
    """CSV text with one field multiplied by ``scale`` and raised by 1e-3."""
    lines = text.split("\n")
    parts = lines[line].split(",")
    parts[field] = repr(float(parts[field]) * scale + 1e-3)
    lines[line] = ",".join(parts)
    return "\n".join(lines)


def check_rejections() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        workdir = Path(tmp)
        built = {name: workloads.build(name, 7, workdir, small=True) for name in workloads.WORKLOADS}
        with harness.Launcher(harness.child_env(run.SRC), workdir) as launcher:
            outputs = {
                name: [launcher.run(run.PROGRAM + inv.args) for inv in wl.invocations]
                for name, wl in built.items()
            }
            bad_config = workdir / "bad.json"
            bad_config.write_text('{"problem": {"cosh": {"d": 2}}, "optimizer": {"method": "nope"}}')
            nonzero = launcher.run(run.PROGRAM + ["run", "--config", str(bad_config)])

        for name, wl in built.items():
            for inv, res in zip(wl.invocations, outputs[name]):
                assert run.evaluate(inv, res, None) == [], (name, inv.label)
                assert run.evaluate(inv, res, res.sha256) == []

        grid_inv, (grid_out,) = built["grid"].invocations[0], outputs["grid"]
        # Line 6 is the (100, 0.5) cell: neither mean is at rounding level.
        assert grid_inv.check(perturb_number(grid_out.stdout, 6, 6)), "perturbed grid mean accepted"
        assert grid_inv.check(perturb_number(grid_out.stdout, 6, 3)), "perturbed grid Linf accepted"
        analyze_inv, (analyze_out,) = built["analyze-d24"].invocations[0], outputs["analyze-d24"]
        report = json.loads(analyze_out.stdout)
        report["Linf_exact"] *= 1.0 + 1e-6
        assert analyze_inv.check(json.dumps(report) + "\n"), "perturbed Linf accepted"
        for inv, res in zip(built["runs"].invocations, outputs["runs"]):
            assert inv.check(perturb_number(res.stdout, 1, 1)), f"{inv.label}: perturbed f0 accepted"
            assert inv.check(res.stdout.rsplit("\n", 2)[0] + "\n"), f"{inv.label}: short trace accepted"
        gd_inv, gd_out = built["runs"].invocations[0], outputs["runs"][0]
        rising = perturb_number(gd_out.stdout, 3, 1, scale=1e6)  # f at t=2 far above f at t=1
        assert gd_inv.label == "run:gd" and gd_inv.check(rising), "increasing f accepted"

        assert nonzero.returncode == 2, nonzero.returncode
        assert "exit code 2" in run.evaluate(gd_inv, nonzero, None)
        traced = harness.ChildResult(0, 0.0, 0.0, 0.0, gd_out.stdout, "Traceback (most recent call last)")
        assert run.evaluate(gd_inv, traced, None) == ["traceback printed"]
        assert run.evaluate(gd_inv, gd_out, "0" * 64) == ["stdout differs from the first pass"]


def check_refuses_without_source() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines = bench("grid", 0, cwd=bare)
        assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)


def main() -> int:
    run.OUT_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_report(name, trace)
    check_counts()
    check_rejections()
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import normdescent
from normdescent import analysis, cli, problems
from normdescent import (
    BlockMax, BlockPartition, Euclidean, Max, One, SymMatrix, WeightedDiag, exp_skew, make_quadratic,
    quad_oracle, random_skew, rotate_spectrum, run_steepest_descent, smoothness_constant,
)
from normdescent.cli import GRID_CSV_HEADER, REQUIRED, grid_csv_lines
from normdescent.experiments import GridCell, GridConfig, run_quad_grid
from normdescent.optimizers import ROW_CHUNK, DivergenceError, Trace


USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Directory holding the imported package, whether installed or run from src/.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(normdescent.__file__)))


def child_env(env_extra=None) -> dict:
    # The child runs in tmp_path, where a relative PYTHONPATH entry such as
    # "src" no longer resolves, so hand it the absolute package root first.
    # Its stdout is block-buffered, as a user's is, so output that only the
    # flush at a normal exit writes is lost if the process skips it.
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return env


def _read_grid(obj) -> GridConfig:
    """The GridConfig that quadgrid reads from the JSON object ``obj``."""
    return GridConfig(**cli.read_fields(obj, "grid config", cli._GRID_FIELDS))


def run_cli(args, tmp_path, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "normdescent.cli", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(env_extra),
    )


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n2 1\n1 3\n")
    return path


class TestAnalyze:
    def test_example_matrix(self, tmp_path, matrix_file):
        res = run_cli(["analyze", str(matrix_file)], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["Linf_exact"] == 7.0
        assert report["rho_diag"] == pytest.approx(5.0 / 7.0)
        assert report["lsep_rowsum"] == 7.0
        assert report["bound_psd"] == pytest.approx(7.0, rel=1e-12)

    def test_identity(self, tmp_path):
        path = tmp_path / "eye.txt"
        path.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
        res = run_cli(["analyze", str(path)], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["L2"] == 1.0
        assert report["Linf_exact"] == 3.0
        assert report["rho_diag"] == 1.0

    def test_malformed_exits_2_with_empty_stdout(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2\n")
        res = run_cli(["analyze", str(path)], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "error" in res.stderr

    def test_asymmetric_exits_2(self, tmp_path):
        path = tmp_path / "asym.txt"
        path.write_text("2\n2 1\n1.5 3\n")
        res = run_cli(["analyze", str(path)], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""

    def test_zero_matrix_exits_2(self, tmp_path):
        # parseable but has no defined concentration ratio
        path = tmp_path / "zero.txt"
        path.write_text("2\n0 0\n0 0\n")
        res = run_cli(["analyze", str(path)], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "undefined" in res.stderr

    def test_large_dimension_warns_and_omits_exact(self, tmp_path):
        # off the paper's family: no column sign pattern certifies Linf, and d is above the walk's cap
        d = 26
        skew = random_skew(d, np.random.default_rng(4))
        h = rotate_spectrum(np.r_[np.ones(d - 2), 20.0, 50.0], exp_skew(skew, 0.5))
        rows = "\n".join(" ".join(f"{v:.17g}" for v in row) for row in h.to_array())
        path = tmp_path / "big.txt"
        path.write_text(f"{d}\n{rows}\n")
        res = run_cli(["analyze", str(path)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "Linf_exact" not in json.loads(res.stdout)
        assert "cap" in res.stderr

    def test_zero_dimension_exits_2_with_its_message(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("0\n")
        code = cli.main(["analyze", str(path)])
        assert (code, *capsys.readouterr()) == (2, "", "error: dimension must be positive, got 0\n")

    def test_dimension_above_the_cap_warns_in_one_line(self, tmp_path, capsys):
        # off the paper's family the column check settles nothing, and d = 25 is above the walk's cap
        d = 25
        skew = random_skew(d, np.random.default_rng(4))
        h = rotate_spectrum(np.r_[np.ones(d - 2), 20.0, 50.0], exp_skew(skew, 0.5))
        rows = "\n".join(" ".join(f"{v:.17g}" for v in row) for row in h.to_array())
        path = tmp_path / "big.txt"
        path.write_text(f"{d}\n{rows}\n")
        code = cli.main(["analyze", str(path)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "warning: d=25 exceeds the exact-norm cap; Linf_exact omitted\n")
        report = json.loads(out)
        assert "Linf_exact" not in report and report["L2"] == pytest.approx(50.0, rel=1e-12)

    @pytest.mark.parametrize(
        "text, message",
        [
            # finite entries whose reported sums overflow
            ("3\n" + "5e307 5e307 5e307\n" * 3, "error: Linf_exact overflows: matrix entries too large"),
            # finite entries whose largest eigenvalue overflows
            ("2\n" + "1e308 1e308\n" * 2, "error: L2 overflows: matrix entries too large"),
        ],
    )
    def test_overflowing_sums_exit_2_with_one_error_line(self, tmp_path, text, message):
        path = tmp_path / "huge.txt"
        path.write_text(text)
        res = run_cli(["analyze", str(path)], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [message]

    def test_undecodable_file_exits_2(self, tmp_path):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"\xff\xfe\n")
        res = run_cli(["analyze", str(path)], tmp_path, {"PYTHONUTF8": "1"})
        assert (res.returncode, res.stdout) == (2, "")
        reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert res.stderr.splitlines() == [f"error: {reason}"]

    def test_entry_whose_doubled_value_overflows_is_reported(self, tmp_path):
        # 1e308 + 1e308 overflows, but the symmetrised matrix halves before it adds
        path = tmp_path / "huge.txt"
        path.write_text("1\n1e308\n")
        res = run_cli(["analyze", str(path)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        report = json.loads(res.stdout)
        assert report["L2"] == 1e308 and report["ratio_dL2_over_Linf"] == 1.0
        assert '"L2": 1e+308' in res.stdout


RUN_CFG = {
    "problem": {"quadratic": {"d": 2, "lambda_max": 1.0, "theta": 0.0, "seed": 3}},
    "optimizer": {"method": "gd", "L": 1.0},
    "T": 3,
    "x0_seed": 1,
}


# Config bytes that are no readable JSON, and the reason that follows
# "cannot read config PATH: ".  The nesting is written as text: json.dumps
# recurses once per level and cannot build it.
UNREADABLE_CONFIGS = {
    "nested-too-deep": (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    "not-utf-8": (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
}


def _unreadable_config_exits_2(tmp_path, capsys, command, case):
    data, reason = UNREADABLE_CONFIGS[case]
    path = tmp_path / "config.json"
    path.write_bytes(data)
    code = cli.main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot read config {path}: {reason}")


QUAD3 = {"quadratic": {"d": 3, "lambda_max": 2.0}}
COSH2 = {"cosh": {"d": 2}}


class TestRun:
    def test_identity_solves_in_one_step(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(RUN_CFG))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == "t,f,dual_grad_norm,dist_sq"
        assert len(lines) == 5  # header plus t = 0..3
        assert lines[1].startswith("0,")
        assert lines[2] == "1,0,0,0"

    def test_large_quadratic(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 200, "lambda_max": 50.0, "theta": 0.5, "seed": 1}},
            "optimizer": {"method": "gd"},
            "T": 5,
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert len(res.stdout.splitlines()) == 7  # header plus t = 0..5

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "run.json"
        payload = dict(RUN_CFG)
        payload["problem"] = {"quadratic": {"d": 5, "lambda_max": 12.0, "theta": 0.7, "seed": 9}}
        payload["optimizer"] = {"method": "signgd_normscaled"}
        payload["T"] = 40
        cfg.write_text(json.dumps(payload))
        a = run_cli(["run", "--config", str(cfg)], tmp_path)
        b = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert a.stdout == b.stdout

    def test_out_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(RUN_CFG))
        out = tmp_path / "trace.csv"
        res = run_cli(["run", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert res.stdout == ""
        assert out.read_text().splitlines()[0] == "t,f,dual_grad_norm,dist_sq"

    def test_default_L_comes_from_problem(self, tmp_path):
        # omit L: gd uses the spectral constant of the generated matrix
        cfg_obj = {
            "problem": {"quadratic": {"d": 4, "lambda_max": 8.0, "theta": 0.3, "seed": 5}},
            "optimizer": {"method": "gd"},
            "T": 10,
            "x0_seed": 2,
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfg_obj))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        p = make_quadratic(4, 8.0, 0.3, seed=5)
        x0 = np.random.default_rng(2).standard_normal(4)
        L2 = smoothness_constant(p, Euclidean())
        tr = run_steepest_descent(quad_oracle(p), Euclidean(), L2, x0, 10)
        f_row3 = float(res.stdout.splitlines()[4].split(",")[1])
        assert f_row3 == tr.f[3]

    def test_default_max_L_comes_from_problem(self, tmp_path):
        # omit L: sign descent uses the exact max-norm constant of the matrix
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 4, "lambda_max": 8.0, "theta": 0.3, "seed": 5}},
            "optimizer": {"method": "signgd_normscaled"},
            "T": 10,
            "x0_seed": 2,
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        p = make_quadratic(4, 8.0, 0.3, seed=5)
        x0 = np.random.default_rng(2).standard_normal(4)
        linf = smoothness_constant(p, Max())
        tr = run_steepest_descent(quad_oracle(p), Max(), linf, x0, 10)
        assert [float(ln.split(",")[1]) for ln in res.stdout.splitlines()[1:]] == list(tr.f)

    def test_default_max_L_above_the_walk_cap(self, tmp_path):
        # the paper's family is certified by its column sign patterns at any d:
        # Linf is the row-sum bound sum_ij |H_ij|, with no enumeration
        d = 25
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": d, "lambda_max": 2.0, "theta": 0.5, "seed": 5}},
            "optimizer": {"method": "signgd_normscaled"},
            "T": 10,
            "x0_seed": 2,
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        p = make_quadratic(d, 2.0, 0.5, seed=5)
        linf = smoothness_constant(p, Max())
        assert linf == pytest.approx(np.abs(p.to_array()).sum(), rel=1e-12)
        x0 = np.random.default_rng(2).standard_normal(d)
        tr = run_steepest_descent(quad_oracle(p), Max(), linf, x0, 10)
        assert [float(ln.split(",")[1]) for ln in res.stdout.splitlines()[1:]] == list(tr.f)

    def test_no_unused_max_norm_constant_is_computed(self, tmp_path, monkeypatch):
        # neither building a quadratic nor a method outside the max geometry
        # may enumerate sign vectors, at the cap or above it
        def enumeration(H):
            raise AssertionError("linf_bruteforce called")

        monkeypatch.setattr(analysis, "linf_bruteforce", enumeration)
        make_quadratic(24, 50.0, 0.0, 0)
        cfg = tmp_path / "run.json"
        for d, optimizer in itertools.product(
            (24, 30), ({"method": "gd"}, {"method": "cd"}, {"method": "nsd", "norm": "euclidean"})
        ):
            cfg.write_text(json.dumps({
                "problem": {"quadratic": {"d": d, "lambda_max": 50.0, "theta": 0.5}},
                "optimizer": optimizer,
                "T": 5,
            }))
            code, out = _main_obeys_exit_contract(["run", "--config", str(cfg)])
            assert code == 0 and len(out.splitlines()) == 7, (d, optimizer)

    def test_divergence_exits_3_with_partial_trace(self, tmp_path):
        # f_0 = 5e-5, so the blow-up limit is 1e12; a step of 1000 lands near f = 5e13
        cfg_obj = {
            "problem": {"quadratic": {"d": 4, "lambda_max": 1e8, "theta": 0.0, "seed": 5}},
            "optimizer": {"method": "signsgd", "step": {"constant": 1000.0}},
            "T": 50,
            "x0": [1e-6, -1e-6, 2e-6, 1e-6],
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfg_obj))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 3
        lines = res.stdout.splitlines()
        assert lines[0] == "t,f,dual_grad_norm,dist_sq"
        assert 2 <= len(lines) < 52  # partial trace was flushed
        assert "divergence" in res.stderr
        # the partial trace also lands in --out
        out = tmp_path / "partial.csv"
        res2 = run_cli(["run", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert res2.returncode == 3
        assert out.read_text() == res.stdout

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"problem": {"quadratic": {"d": 2, "lambda_max": 1.0}}}))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "problem, optimizer",
        [
            ({"quadratic": 5}, {"method": "gd"}),
            ({"cosh": [3]}, {"method": "gd", "L": 1.0}),
            ({"quadratic": {"d": 3, "lambda_max": 2.0}}, {"method": "gd", "L": -1}),
            ({"quadratic": {"d": 3, "lambda_max": 2.0}}, {"method": "gd", "L": "inf"}),
        ],
    )
    def test_malformed_spec_exits_2(self, tmp_path, problem, optimizer):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"problem": problem, "optimizer": optimizer, "T": 3}))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "cfg",
        [
            {"problem": QUAD3, "optimizer": {"method": "blocknorm", "blocks": 3}},
            {"problem": QUAD3, "optimizer": {"method": "adam_shuffled", "blocks": [0, 1, 2]}},
            {"problem": QUAD3, "optimizer": {"method": "gd"}, "T": [3]},
            {"problem": QUAD3, "optimizer": {"method": "gd"}, "x0": {"a": 1}},
            {"problem": COSH2, "optimizer": {"method": "relaxed_nsd", "L0": -1}},
            {"problem": COSH2, "optimizer": {"method": "relaxed_nsd", "L0": 1, "eps": 0}},
            {"problem": COSH2, "optimizer": {"method": "relaxed_nsd", "L0": 1, "L1": -1}},
            {"problem": COSH2, "optimizer": {"method": "gd", "L": 1.0}, "x0": [800, 0]},
            # epsilon 0 with a zero gradient coordinate: rejected by the runner itself
            {"problem": COSH2, "optimizer": {"method": "adam", "epsilon": 0}, "x0": [0, 1]},
            {"problem": QUAD3, "optimizer": {"method": "gd"}, "T": 0},
        ],
    )
    def test_mistyped_or_out_of_range_exits_2(self, tmp_path, cfg):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(cfg, T=cfg.get("T", 3))))
        res = run_cli(["run", "--config", str(path)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        assert [ln for ln in res.stderr.splitlines() if ln.startswith("error:")] == [
            res.stderr.strip()
        ]

    @pytest.mark.parametrize("cfg, message", [
        pytest.param({"problem": {"sphere": {"d": 3}}, "optimizer": {"method": "gd"}},
                     "unknown problem family: 'sphere'", id="unknown-family"),
        pytest.param({"problem": QUAD3, "optimizer": {"method": "signgd", "step": "constant"}},
                     "unrecognized step schedule: 'constant'", id="step-schedule"),
        pytest.param({"problem": {"cosh": {"d": 3}}, "optimizer": {"method": "gd"}},
                     "explicit 'L' required for non-quadratic problems", id="cosh-without-L"),
    ])
    def test_unusable_config_exits_2_with_its_message(self, tmp_path, capsys, cfg, message):
        code, out, err = _main_on_config(tmp_path, capsys, "run", dict(cfg, T=3))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_zero_steps_exit_2_before_the_problem_is_built(self, tmp_path, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("make_quadratic called")

        monkeypatch.setattr(cli, "make_quadratic", build)
        cfg = {"problem": QUAD3, "optimizer": {"method": "gd"}, "T": 0}
        code, out, err = _main_on_config(tmp_path, capsys, "run", cfg)
        assert (code, out, err) == (2, "", "error: 'T' must be a positive integer, got 0\n")

    @pytest.mark.parametrize("problem, builder, x0, message", [
        pytest.param(QUAD3, "make_quadratic", [1.0, 2.0], "x0 must be a finite vector of length 3", id="short"),
        pytest.param(QUAD3, "make_quadratic", [0.0, math.inf, 0.0], "x0 must be a finite vector of length 3",
                     id="infinite"),
        pytest.param(COSH2, "CoshProblem", [800.0, 0.0], "x0 exceeds the cosh overflow guard 700", id="cosh-guard"),
    ])
    def test_given_x0_is_checked_before_the_problem_is_built(self, tmp_path, capsys, monkeypatch,
                                                             problem, builder, x0, message):
        def build(*args):
            raise AssertionError(f"{builder} called")

        monkeypatch.setattr(cli, builder, build)
        cfg = {"problem": problem, "optimizer": {"method": "gd", "L": 1.0}, "T": 3, "x0": x0}
        code, out, err = _main_on_config(tmp_path, capsys, "run", cfg)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_wrong_length_x0_exits_2_before_the_constant_is_computed(self, tmp_path, capsys, monkeypatch):
        def constant(*args):
            raise AssertionError("smoothness_constant called")

        monkeypatch.setattr(cli, "smoothness_constant", constant)
        cfg = {"problem": QUAD3, "optimizer": {"method": "gd"}, "T": 3, "x0": [1.0, 2.0]}
        code, out, err = _main_on_config(tmp_path, capsys, "run", cfg)
        assert (code, out, err) == (2, "", "error: x0 must be a finite vector of length 3\n")

    @pytest.mark.parametrize("sigma", [-1, math.nan])
    def test_bad_sigma_exits_2(self, tmp_path, capsys, sigma):
        # json.dumps writes math.nan as the bare NaN that json.load reads back
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "problem": {"quadratic": {"d": 3, "lambda_max": 2.0, "sigma": sigma}},
            "optimizer": {"method": "gd"}, "T": 3,
        }))
        assert cli.main(["run", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: sigma must be nonnegative and finite\n"

    @pytest.mark.parametrize(
        "field, problem, optimizer",
        [
            ("step", QUAD3, {"method": "adam", "step": math.inf}),
            ("epsilon", QUAD3, {"method": "adam", "epsilon": math.nan}),
            ("constant", QUAD3, {"method": "signsgd", "step": {"constant": math.inf}}),
            ("sigma", {"quadratic": {"d": 3, "lambda_max": 2.0, "sigma": math.inf}}, {"method": "gd"}),
        ],
    )
    def test_non_finite_value_exits_2_naming_it(self, tmp_path, capsys, field, problem, optimizer):
        # json.load reads Infinity and NaN (and 1e999) as floats; none is a usable value
        cfg = {"problem": problem, "optimizer": optimizer, "T": 3}
        code, out, err = _main_on_config(tmp_path, capsys, "run", cfg)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and _names(line, field), line

    @pytest.mark.parametrize(
        "field, cfg",
        [
            ("T", {"problem": QUAD3, "optimizer": {"method": "gd"}, "T": 5.7}),
            ("T", {"problem": QUAD3, "optimizer": {"method": "gd"}, "T": True}),
            ("d", {"problem": {"quadratic": {"d": 8.9, "lambda_max": 2.0}}, "optimizer": {"method": "gd"}}),
            ("d", {"problem": {"cosh": {"d": True}}, "optimizer": {"method": "gd", "L": 1.0}}),
            ("seed", {"problem": {"quadratic": {"d": 3, "lambda_max": 2.0, "seed": 1.5}},
                      "optimizer": {"method": "gd"}}),
            ("noise_seed", {"problem": {"quadratic": {"d": 3, "lambda_max": 2.0, "sigma": 0.5, "noise_seed": False}},
                            "optimizer": {"method": "gd"}}),
            ("x0_seed", {"problem": QUAD3, "optimizer": {"method": "gd"}, "x0_seed": 2.5}),
            ("seed", {"problem": QUAD3, "optimizer": {"method": "adam_shuffled", "seed": True}}),
        ],
    )
    def test_non_integer_field_exits_2_naming_it(self, tmp_path, capsys, field, cfg):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(dict(cfg, T=cfg.get("T", 3))))
        assert cli.main(["run", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {field!r} must be an integer")

    def test_integral_float_fields_run_as_integers(self, tmp_path, capsys):
        spec = {"d": 3, "lambda_max": 2.0, "seed": 4, "sigma": 0.5, "noise_seed": 9}
        cfg = {"problem": {"quadratic": spec}, "optimizer": {"method": "adam_shuffled", "seed": 2},
               "T": 5, "x0_seed": 1}
        as_floats = {"problem": {"quadratic": {k: float(v) for k, v in spec.items()}},
                     "optimizer": {"method": "adam_shuffled", "seed": 2.0}, "T": 5.0, "x0_seed": 1.0}
        outs = []
        for i, obj in enumerate((cfg, as_floats)):
            path = tmp_path / f"run{i}.json"
            path.write_text(json.dumps(obj))
            assert cli.main(["run", "--config", str(path)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 7

    def test_leaving_cosh_guard_exits_3_with_partial_trace(self, tmp_path):
        # the first step jumps from x = 5 to about -7.4e4, past the 700 guard
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": COSH2, "optimizer": {"method": "gd", "L": 0.001}, "x0": [5, 0], "T": 3,
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 3, res.stderr
        assert res.stdout.splitlines()[0] == "t,f,dual_grad_norm,dist_sq"
        assert len(res.stdout.splitlines()) == 2  # the t = 0 row
        assert "Traceback" not in res.stderr
        assert "divergence at step 1" in res.stderr and "guard" in res.stderr

    def test_zero_epsilon_error_at_a_start_above_the_threshold_exits_2(self, tmp_path):
        # f(x0) = cosh(30) - 1 exceeds F_BLOWUP, but no run blows up at its start:
        # the first update meets the zero second moment of coordinate 1
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": COSH2, "optimizer": {"method": "adam", "epsilon": 0}, "x0": [30, 0], "T": 3,
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert (res.returncode, res.stdout) == (2, ""), res.stderr
        assert res.stderr == "error: degenerate input: zero second moment with epsilon = 0\n"

    @pytest.mark.parametrize("method", ["relaxed_nsd", "nsd"])
    def test_stopping_run_blowing_up_at_step_1_prints_its_dual_norm(self, tmp_path, method):
        # from f_0 = cosh(1) - 1 < 1 the first step lands near (-500, -500), where f > 1e12
        optimizer = {"method": method, **({"L0": 4.7e-4, "L1": 0.0} if method == "relaxed_nsd" else {"L": 0.002})}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"problem": COSH2, "optimizer": optimizer, "x0": [1, 0], "T": 3}))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 3, res.stderr
        rows = [row.split(",") for row in res.stdout.splitlines()[1:]]
        assert len(rows) == 2 and res.stderr.startswith("error: divergence at step 1: ")
        assert float(rows[0][2]) == math.sinh(1.0)  # one-norm of sinh(x0)
        # near |x_i| = 500, |sinh(x_i)| and cosh(x_i) - 1 agree to rounding: the dual norm is f
        f, dual = float(rows[1][1]), float(rows[1][2])
        assert dual > 1e200 and dual == pytest.approx(f, rel=1e-12)

    @pytest.mark.parametrize("method", ["relaxed_nsd", "nsd"])
    def test_stopping_run_starting_above_the_threshold_runs_on(self, tmp_path, method):
        optimizer = {"method": method, **({"L0": 2.0, "L1": 1.0} if method == "relaxed_nsd" else {"L": 2.0})}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"problem": COSH2, "optimizer": optimizer, "x0": [30, 0], "T": 3}))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert (res.returncode, res.stderr) == (0, "")
        rows = res.stdout.splitlines()[1:]
        assert len(rows) == 4 and float(rows[0].split(",")[2]) == math.sinh(30.0)  # one-norm of sinh(x0)

    def test_overflow_exits_3_with_one_error_line(self, tmp_path):
        # the gradient noise sends the next iterate where the objective
        # overflows; the finiteness check reports it, and no numpy warning
        # reaches stderr
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 3, "lambda_max": 2.0, "sigma": 1e300}},
            "optimizer": {"method": "gd", "L": 1},
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 3, res.stderr
        assert res.stderr.splitlines() == [res.stderr.strip()]
        assert res.stderr.startswith("error: divergence at step")

    def test_huge_finite_gradient_has_a_finite_dual_norm(self, tmp_path):
        # the t = 0 gradient is finite but its squares overflow; the Euclidean
        # dual norm is rescaled instead of printing inf
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 3, "lambda_max": 2.0, "sigma": 1e300}},
            "optimizer": {"method": "gd", "L": 1},
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 3, res.stderr
        t, f, dual, dist = res.stdout.splitlines()[1].split(",")
        assert t == "0" and all(math.isfinite(float(v)) for v in (f, dist))
        assert 1e299 < float(dual) < 1e302

    def test_lambda_max_beyond_the_family_exits_2_with_the_rule(self, tmp_path):
        # above 1e8 the rotation's rounding moves the unit eigenvalues; at 1e308 the matrix
        # is indefinite, and gradient descent would print objectives below the minimum 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 3, "lambda_max": 1e308, "theta": 0.5}},
            "optimizer": {"method": "gd"},
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "error: lambda_max must lie in [1, 1e8], got 1e+308\n"

    def test_family_quadratic_starting_above_the_threshold_runs(self, tmp_path):
        # x0 puts f_0 = 1.638e+13 above F_BLOWUP; the limit is relative to it, and every row stays above 1e12
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 4, "lambda_max": 100, "theta": 0.5}},
            "optimizer": {"method": "gd"}, "T": 5, "x0": [1e6, 1e6, 1e6, 1e6],
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert (res.returncode, res.stderr) == (0, ""), res.stderr
        rows = res.stdout.splitlines()
        assert len(rows) == 7 and rows[1].startswith("0,16384882300602.")
        assert min(float(row.split(",")[1]) for row in rows[1:]) > 1e12

    @pytest.mark.parametrize("case", sorted(UNREADABLE_CONFIGS))
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, case):
        _unreadable_config_exits_2(tmp_path, capsys, "run", case)

    def test_unwritable_out_exits_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(RUN_CFG))
        out = tmp_path / "missing" / "x.csv"
        res = run_cli(["run", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert not out.exists()

    def test_unknown_method_exits_2(self, tmp_path):
        cfg_obj = dict(RUN_CFG, optimizer={"method": "lbfgs"})
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfg_obj))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "optimizer",
        [
            {"method": "cd"},
            {"method": "blocknorm", "blocks": [[0, 1], [2, 3]]},
            {"method": "nsd", "norm": "max"},
            {"method": "relaxed_nsd", "L0": 2.0, "L1": 1.0, "eps": 1e-4},
            {"method": "signgd", "step": "inv_sqrt"},
            {"method": "adam", "step": 0.05},
            {"method": "adam_shuffled", "step": 0.05, "blocks": [[0, 1], [2, 3]], "seed": 4},
            {"method": "adam_averaged", "step": 0.05},
            {"method": "momentum_sign", "step": 0.05},
        ],
    )
    def test_all_methods_run(self, tmp_path, optimizer):
        cfg_obj = {
            "problem": {"quadratic": {"d": 4, "lambda_max": 6.0, "theta": 0.4, "seed": 7}},
            "optimizer": optimizer,
            "T": 20,
            "x0_seed": 3,
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfg_obj))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert len(res.stdout.splitlines()) >= 2

    def test_cosh_problem_requires_explicit_L(self, tmp_path):
        cfg_obj = {
            "problem": {"cosh": {"d": 3}},
            "optimizer": {"method": "gd"},
            "T": 5,
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfg_obj))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2
        cfg_obj["optimizer"] = {"method": "relaxed_nsd", "L0": 3.0, "L1": 1.0, "eps": 1e-3}
        cfg.write_text(json.dumps(cfg_obj))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr

    def test_stochastic_run_is_reproducible(self, tmp_path):
        cfg_obj = {
            "problem": {"quadratic": {"d": 4, "lambda_max": 6.0, "theta": 0.4, "seed": 7, "sigma": 0.5}},
            "optimizer": {"method": "signsgd"},
            "T": 30,
            "x0_seed": 3,
        }
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(cfg_obj))
        a = run_cli(["run", "--config", str(cfg)], tmp_path)
        b = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout

    @pytest.mark.parametrize("d, theta", itertools.product([3, 8, 64], [0.2, 0.5, 1.0]))
    @pytest.mark.parametrize("method", ["gd", "signgd_normscaled"])
    def test_largest_lambda_max_prints_no_negative_objective(self, tmp_path, d, theta, method):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": d, "lambda_max": 1e8, "theta": theta}},
            "optimizer": {"method": method}, "T": 2000,
        }))
        code, out = _main_obeys_exit_contract(["run", "--config", str(cfg)])
        f = [float(row.split(",")[1]) for row in out.splitlines()[1:]]
        assert code == 0 and len(f) == 2001
        assert min(f) >= 0.0

    def test_lambda_max_just_above_the_bound_exits_2(self, tmp_path, capsys):
        above = float(np.nextafter(1e8, np.inf))
        code, out, err = _main_on_config(tmp_path, capsys, "run", {
            "problem": {"quadratic": {"d": 4, "lambda_max": above, "theta": 0.5}}, "optimizer": {"method": "gd"},
        })
        assert (code, out, err) == (2, "", f"error: lambda_max must lie in [1, 1e8], got {above}\n")

    def test_indefinite_hessian_exits_2(self, tmp_path, monkeypatch):
        # a Hessian whose smallest eigenvalue is -1e-6 lambda_max, far beyond
        # rounding at that scale, is still no quadratic problem
        def indefinite(eigs, Q):
            return SymMatrix(np.diag(np.concatenate([[-1e-6 * eigs[-1]], eigs[1:]])))

        monkeypatch.setattr(problems, "rotate_spectrum", indefinite)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 4, "lambda_max": 1e6, "theta": 0.5}},
            "optimizer": {"method": "gd"}, "T": 2,
        }))
        code, _ = _main_obeys_exit_contract(["run", "--config", str(cfg)])
        assert code == 2


def _per_row_csv(trace) -> str:
    """The trace CSV formatted one row at a time."""
    rows = [
        "%d,%.17g,%.17g,%.17g" % (t, trace.f[t], trace.dual_grad_norm[t], trace.dist_sq[t]) for t in range(len(trace))
    ]
    return "\n".join([cli.TRACE_CSV_HEADER, *rows])


class TestTraceCsv:
    """One format operation over the table gives the bytes of one per row."""

    @pytest.mark.parametrize("rows", [
        [[1.5, 2.0, 0.25]],  # one row
        [[0.1, -0.0, 5e-324], [-0.0, 2.2250738585072014e-308 / 3, 1e300],
         [math.inf, math.nan, -1e-310]],  # -0.0, subnormals, non-finite values
        [[1.0 / 3, 2.0 / 3, 0.0]] * 5,
    ])
    def test_bytes_equal_per_row_formatting(self, rows):
        a = np.array(rows)
        trace = Trace(a[:, 0], a[:, 1], a[:, 2], np.zeros(2))
        assert "\n".join(cli._trace_csv_lines(trace)) == _per_row_csv(trace)

    @pytest.mark.parametrize("n", [ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 1])
    def test_chunks_join_to_the_per_row_table(self, n):
        a = np.random.default_rng(n).standard_normal((3, n)) * 1e3
        trace = Trace(a[0], np.abs(a[1]), np.abs(a[2]), np.zeros(2))
        pieces = list(cli._trace_csv_lines(trace))
        assert len(pieces) == 1 + -(-n // ROW_CHUNK)  # the header, then one string per chunk
        assert "\n".join(pieces) == _per_row_csv(trace)

    def test_long_and_empty_traces(self):
        a = np.random.default_rng(3).standard_normal((3, 2000)) * 10.0 ** np.arange(-200, 200, 0.2)
        trace = Trace(a[0], np.abs(a[1]), np.abs(a[2]), np.zeros(2))
        assert "\n".join(cli._trace_csv_lines(trace)) == _per_row_csv(trace)
        empty = Trace(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(2))
        assert list(cli._trace_csv_lines(empty)) == [cli.TRACE_CSV_HEADER]


def _run_cfg(tmp_path, name, **cfg):
    """The path of a gd run config on a d = 8 quadratic, ``cfg`` setting further keys."""
    problem = {"quadratic": {"d": 8, "lambda_max": 50.0, "theta": 0.5, "seed": 1}}
    path = tmp_path / name
    path.write_text(json.dumps({"problem": problem, "optimizer": {"method": "gd"}, "x0_seed": 7, **cfg}))
    return str(path)


class TestStreamedOutput:
    """The CSV is written a chunk at a time, to stdout or to ``--out``."""

    LATE_BLOW_UP = {"optimizer": {"method": "gd", "L": 24.9}, "T": 5000}  # f grows ~1.6% a step

    def test_out_file_bytes_equal_stdout(self, tmp_path):
        cfg = _run_cfg(tmp_path, "run.json", T=2 * ROW_CHUNK + 10)
        out = tmp_path / "trace.csv"
        a = run_cli(["run", "--config", cfg], tmp_path)
        b = run_cli(["run", "--config", cfg, "--out", str(out)], tmp_path)
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert b.stdout == ""
        assert len(a.stdout.splitlines()) == 2 * ROW_CHUNK + 12
        assert out.read_bytes() == a.stdout.encode()

    @pytest.mark.parametrize("late_blow_up", [False, True])
    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_exits_2_with_one_error(self, tmp_path, late_blow_up, target):
        cfg = _run_cfg(tmp_path, "run.json", **(self.LATE_BLOW_UP if late_blow_up else {"T": 2 * ROW_CHUNK}))
        res = run_cli(["run", "--config", cfg, "--out", str(tmp_path / target)], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        errors = res.stderr.splitlines()
        assert [e for e in errors if e.startswith("error: cannot write")] == errors[-1:]
        assert len(errors) == 1 + late_blow_up  # the divergence line comes first
        assert "Traceback" not in res.stderr

    def test_late_divergence_exits_3_with_the_partial_trace(self, tmp_path):
        cfg = _run_cfg(tmp_path, "run.json", **self.LATE_BLOW_UP)
        out = tmp_path / "partial.csv"
        res = run_cli(["run", "--config", cfg], tmp_path)
        res_out = run_cli(["run", "--config", cfg, "--out", str(out)], tmp_path)
        assert res.returncode == res_out.returncode == 3
        assert out.read_bytes() == res.stdout.encode()
        with pytest.raises(DivergenceError) as err:
            run_steepest_descent(
                quad_oracle(make_quadratic(8, 50.0, 0.5, 1)), Euclidean(), 24.9,
                np.random.default_rng(7).standard_normal(8), 5000,
            )
        assert ROW_CHUNK < err.value.step < 5000
        assert res.stderr == f"error: {err.value}\n"
        assert res.stdout == _per_row_csv(err.value.trace) + "\n"
        assert len(res.stdout.splitlines()) == err.value.step + 2  # header, rows 0..step

    def test_a_reader_that_stops_early_gets_no_traceback(self, tmp_path):
        """``run ... | head -1``: the rows after the reader left are dropped
        quietly, and the run exits as if they had been written."""
        cfg = _run_cfg(tmp_path, "run.json", T=20 * ROW_CHUNK)  # ~1.3 MB, far past a pipe's buffer
        proc = subprocess.Popen(
            [sys.executable, "-m", "normdescent.cli", "run", "--config", cfg],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=child_env(),
        )
        assert proc.stdout.readline() == b"t,f,dual_grad_norm,dist_sq\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert stderr == b""

    def test_analyze_to_a_closed_reader_exits_0_quietly(self, tmp_path, matrix_file):
        # the reader is gone before the child has imported numpy, so the report's write fails
        proc = subprocess.Popen(
            [sys.executable, "-m", "normdescent.cli", "analyze", str(matrix_file)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=child_env(),
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 0
        assert stderr == b""

    def test_quadgrid_output_is_its_joined_lines(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CFG))
        out = tmp_path / "grid.csv"
        assert cli.main(["quadgrid", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert cli.main(["quadgrid", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        cells = run_quad_grid(_read_grid(GRID_CFG))
        assert stdout == "\n".join(grid_csv_lines(cells)) + "\n"
        assert out.read_text() == stdout

    def test_run_memory_grows_by_at_most_96_bytes_a_step(self, tmp_path):
        """tracemalloc's peak over a gd run writing to ``--out``: the trace
        keeps three floats a step (24 B); whole-trace buffers and a
        whole-table string took about 300 B a step."""

        def peak(T):
            cfg = _run_cfg(tmp_path, f"run{T}.json", T=T)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "trace.csv")]) == 0
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert (peak(100_000) - peak(10_000)) / 90_000 <= 96


GRID_CFG = {
    "d": 4,
    "lambda_max_values": [1.0, 50.0],
    "theta_values": [0.0, 1.0],
    "T": 50,
    "repeats": 8,
    "skew_seed": 1,
    "x0_seed": 2,
}
PAPER_GRID = Path(__file__).resolve().parent.parent / "scripts" / "quadgrid_paper.json"
# found by search: the first cell finishes, gd of the second diverges at step 44
# on a row that starts below f = 1, so its limit is F_BLOWUP itself
GRID_DIVERGES_AFTER_ONE_ROW = {"d": 4, "lambda_max_values": [1, 2, 5, 20, 100], "theta_values": [0, 0.5, 1],
                               "T": 50, "repeats": 4, "x0_seed": 135, "sigma": 3e5}


class TestQuadGrid:
    def test_format_and_row_order(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CFG))
        res = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == GRID_CSV_HEADER
        cells = [tuple(float(v) for v in ln.split(",")[:2]) for ln in lines[1:]]
        assert cells == [(1.0, 0.0), (1.0, 1.0), (50.0, 0.0), (50.0, 1.0)]
        # one stderr progress line per row
        assert res.stderr.count("done") == 4

    def test_isotropic_row_solved_exactly_by_gd(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CFG))
        res = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = [ln.split(",") for ln in res.stdout.splitlines()[1:]]
        assert len(rows) == 4
        for row in rows:
            if float(row[0]) == 1.0:
                assert float(row[3]) == pytest.approx(4.0, abs=1e-9)  # Linf = d
                assert float(row[5]) <= 1e-20  # mean_dist_gd
            assert all(np.isfinite(float(v)) for v in row)

    def test_byte_identical_across_thread_counts(self, tmp_path):
        # the BLAS thread count; at d = 256 it changes the last digits (README)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CFG))
        runs = [
            run_cli(["quadgrid", "--config", str(cfg)], tmp_path,
                    env_extra={"OPENBLAS_NUM_THREADS": n, "OMP_NUM_THREADS": n})
            for n in ("1", "2")
        ]
        runs.append(run_cli(["quadgrid", "--config", str(cfg)], tmp_path))
        for res in runs:
            assert res.returncode == 0, res.stderr
            assert len(res.stdout.splitlines()) == 5  # header plus 4 cells
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout

    @pytest.mark.skipif(USABLE_CPUS < 2, reason="a second BLAS thread needs a second usable CPU to change any bits")
    def test_d256_bytes_do_not_depend_on_the_omp_thread_count(self, tmp_path):
        # at d = 256 LAPACK's eigensolvers round differently on two threads; the CLI
        # pins OpenBLAS to one thread when OPENBLAS_NUM_THREADS is unset
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"d": 256, "lambda_max_values": [100], "theta_values": [0, 0.5],
                                   "T": 5, "repeats": 4}))
        runs = []
        for n in ("1", "2"):
            env = child_env({"OMP_NUM_THREADS": n})
            env.pop("OPENBLAS_NUM_THREADS", None)
            runs.append(subprocess.run([sys.executable, "-m", "normdescent.cli", "quadgrid", "--config", str(cfg)],
                                       capture_output=True, text=True, cwd=tmp_path, env=env))
        for res in runs:
            assert res.returncode == 0, res.stderr
            assert len(res.stdout.splitlines()) == 3  # header plus 2 cells
        assert runs[0].stdout == runs[1].stdout

    def test_dump_x0_pairs_both_methods(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CFG))
        dump = tmp_path / "x0s"
        res = run_cli(
            ["quadgrid", "--config", str(cfg), "--dump-x0", str(dump)], tmp_path
        )
        assert res.returncode == 0, res.stderr
        files = sorted(dump.glob("x0_*.csv"))
        assert len(files) == 4
        # replaying the dumped draws through both methods reproduces the cell
        rows = {tuple(ln.split(",")[:2]): ln.split(",") for ln in res.stdout.splitlines()[1:]}
        row = rows[("50", "0")]
        x0 = np.array([
            [float(v) for v in ln.split(",")]
            for ln in (dump / "x0_lam50_theta0.csv").read_text().splitlines()
        ])
        p = make_quadratic(4, 50.0, 0.0, seed=1)
        dist_gd, dist_sg = [], []
        for start in x0:
            for kind, acc in ((Euclidean(), dist_gd), (Max(), dist_sg)):
                L = smoothness_constant(p, kind)
                tr = run_steepest_descent(quad_oracle(p), kind, L, start, 50)
                acc.append(tr.dist_sq[-1])
        assert float(row[5]) == pytest.approx(np.mean(dist_gd), rel=1e-15)
        assert float(row[6]) == pytest.approx(np.mean(dist_sg), rel=1e-15)

    @pytest.mark.parametrize(
        "grid, finished",
        [
            ({"d": 4, "lambda_max_values": [2], "theta_values": [0.5], "T": 5,
              "repeats": 2, "sigma": 1e300}, 0),
            (GRID_DIVERGES_AFTER_ONE_ROW, 1),
        ],
    )
    def test_divergence_exits_3_with_finished_rows(self, tmp_path, grid, finished):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(grid))
        res = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        assert res.returncode == 3, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == GRID_CSV_HEADER
        assert len(lines) == 1 + finished
        assert "Traceback" not in res.stderr
        error = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
        assert len(error) == 1 and "divergence at step" in error[0]
        assert "lambda_max=" in error[0] and "method" in error[0]
        # besides the error, only the finished cells' progress lines
        assert res.stderr.splitlines() == [
            f"cell lambda_max={row.split(',')[0]} theta={row.split(',')[1]} done" for row in lines[1:]
        ] + error

    def test_unwritable_paths_exit_2(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CFG))
        res = run_cli(
            ["quadgrid", "--config", str(cfg), "--out", str(tmp_path / "missing" / "x.csv")],
            tmp_path,
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        (tmp_path / "afile").write_text("")
        res = run_cli(
            ["quadgrid", "--config", str(cfg), "--dump-x0", str(tmp_path / "afile" / "sub")],
            tmp_path,
        )
        assert res.returncode == 2
        assert res.stdout == ""
        # the directory is made before the grid runs: no cell has finished
        assert res.stderr.splitlines() == [res.stderr.strip()] and res.stderr.startswith(
            f"error: cannot write starting points to {tmp_path / 'afile' / 'sub'}: ")

    @pytest.mark.parametrize("grid, code, files, digest", [
        ("paper", 0, 42, "f4159b60590983f79ea965a9a69b9386163fde68648b45e027ffd9f3958345f4"),
        ("diverging", 3, 2, "ed50728b19e4710020b81516d5eda7547728f459378357ac8f4e9d0e401ee0e1"),
    ])
    def test_dump_x0_files_keep_their_names_and_bytes(self, tmp_path, grid, code, files, digest):
        """On exit 0 every cell's file, on exit 3 those of the finished cells
        and the diverging one: the seeded draws of each cell, one row per
        start, at 17 significant digits.  ``digest`` pins the sha256 of the
        files' names and bytes in name order."""
        obj = json.loads(PAPER_GRID.read_text()) if grid == "paper" else GRID_DIVERGES_AFTER_ONE_ROW
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(obj))
        res = run_cli(["quadgrid", "--config", str(cfg), "--dump-x0", "x0s"], tmp_path)
        assert res.returncode == code, res.stderr
        paths = sorted((tmp_path / "x0s").iterdir())
        sha = hashlib.sha256()
        for path in paths:
            sha.update(path.name.encode() + b"\n" + path.read_bytes())
        assert (len(paths), sha.hexdigest()) == (files, digest)
        grid_cfg = _read_grid(obj)
        rows = [ln.split(",")[:2] for ln in res.stdout.splitlines()[1:]]
        cells = [(li, ti) for li in range(len(grid_cfg.lambda_max_values)) for ti in range(len(grid_cfg.theta_values))]
        cells.sort(key=lambda c: (grid_cfg.lambda_max_values[c[0]], grid_cfg.theta_values[c[1]]))
        for li, ti in cells[:files]:
            lam, theta = grid_cfg.lambda_max_values[li], grid_cfg.theta_values[ti]
            x0 = np.random.default_rng([grid_cfg.x0_seed, li, ti]).standard_normal((grid_cfg.repeats, grid_cfg.d))
            text = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in x0)
            assert (tmp_path / "x0s" / f"x0_lam{lam:.17g}_theta{theta:.17g}.csv").read_text() == text
        assert len(rows) == files - (code == 3)

    def test_input_error_in_a_later_group_runs_no_cell_and_writes_no_file(self, tmp_path):
        # the cells come in groups of 3 at d = 256, and the last lambda_max breaks the family's
        # rule: the config is checked before the first group runs and the dump directory is made
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"d": 256, "lambda_max_values": [2, 3, 2e8], "theta_values": [0, 1],
                                   "T": 1, "repeats": 1}))
        res = run_cli(["quadgrid", "--config", str(cfg), "--dump-x0", "dumps"], tmp_path)
        assert (res.returncode, res.stdout) == (2, "")
        assert res.stderr == "error: lambda_max must lie in [1, 1e8], got 200000000.0\n"
        assert not (tmp_path / "dumps").exists()

    def test_grid_csv_text_is_pinned(self):
        # the documented header, and every field printed with %.17g in header order
        assert GRID_CSV_HEADER == (
            "lambda_max,theta,L2,Linf,ratio_smoothness,mean_dist_gd,mean_dist_signgd,log10_perf_ratio"
        )
        cell = GridCell(50.0, 0.2, 50.0, 57.5, 0.14375, 1e-3, 2.5e-5, -1.6020599913279623)
        assert grid_csv_lines([cell]) == [
            GRID_CSV_HEADER,
            "50,0.20000000000000001,50,57.5,0.14374999999999999,0.001,2.5000000000000001e-05,-1.6020599913279623",
        ]

    def test_above_the_walk_cap_prints_the_closed_form_linf(self, tmp_path):
        # every cell of the family is closed by the column check, at any d
        d = 25
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID_CFG, d=d)))
        res = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == GRID_CSV_HEADER and len(lines) == 5
        skew = random_skew(d, np.random.default_rng(GRID_CFG["skew_seed"]))
        for line in lines[1:]:
            lam, theta, _, linf = map(float, line.split(",")[:4])
            u1 = float(np.abs(exp_skew(skew, theta).entries[:, -1]).sum())
            assert linf == pytest.approx(d + (lam - 1.0) * u1 * u1, rel=1e-12)

    @pytest.mark.parametrize("case", sorted(UNREADABLE_CONFIGS))
    def test_unreadable_config_exits_2_naming_it(self, tmp_path, capsys, case):
        _unreadable_config_exits_2(tmp_path, capsys, "quadgrid", case)

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID_CFG, repeats=0)))
        res = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2

    @pytest.mark.parametrize("axis", ["lambda_max_values", "theta_values"])
    def test_repeated_axis_value_exits_2_naming_the_axis(self, tmp_path, capsys, axis):
        # the two rows would share one (lambda_max, theta) and one --dump-x0 file
        cfg = dict(GRID_CFG, **{axis: GRID_CFG[axis][:1] * 2})
        path, dump = tmp_path / "grid.json", tmp_path / "x0s"
        path.write_text(json.dumps(cfg))
        code = cli.main(["quadgrid", "--config", str(path), "--dump-x0", str(dump)])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {axis} holds a repeated value\n")
        assert not dump.exists()

    @pytest.mark.parametrize("key", ["T", "repeats"])
    def test_zero_steps_or_repeats_exit_2_as_in_run(self, tmp_path, capsys, key):
        # one reader for T in both commands gives one message
        code, out, err = _main_on_config(tmp_path, capsys, "quadgrid", dict(GRID_CFG, **{key: 0}))
        assert (code, out, err) == (2, "", f"error: {key!r} must be a positive integer, got 0\n")

    def test_infinite_sigma_exits_2(self, tmp_path, capsys):
        code, out, err = _main_on_config(tmp_path, capsys, "quadgrid", dict(GRID_CFG, sigma=math.inf))
        assert (code, out, err) == (2, "", "error: sigma must be nonnegative and finite\n")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("T", [3]), ("lambda_max_values", 5), ("d", [4]), ("theta_values", [[0]]),
            # booleans and non-integral numbers are not integers
            ("T", 5.7), ("d", 8.9), ("repeats", True), ("skew_seed", 1.5), ("x0_seed", False),
        ],
    )
    def test_mistyped_field_exits_2(self, tmp_path, field, value):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID_CFG, **{field: value})))
        res = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert "Traceback" not in res.stderr
        error = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
        assert len(error) == 1 and repr(field) in error[0]


    def test_integral_float_fields_are_integers(self):
        as_floats = {k: float(v) for k, v in GRID_CFG.items() if isinstance(v, int)}
        assert _read_grid(dict(GRID_CFG, **as_floats)) == _read_grid(GRID_CFG)


_BAD = object()  # where a numeric-field test puts a string or a boolean


def _put(obj, value):
    """``obj`` with every _BAD in it replaced by ``value``."""
    if obj is _BAD:
        return value
    if isinstance(obj, dict):
        return {k: _put(v, value) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_put(v, value) for v in obj]
    return obj


def _quad4(**spec):
    return {"quadratic": {"d": 4, "lambda_max": 2.0, **spec}}


_RUN_NUMBER_FIELDS = [  # (the field the error names, a run config with _BAD in it, a valid value there)
    ("d", {"problem": {"quadratic": {"d": _BAD, "lambda_max": 2.0}}}, 4),
    ("d", {"problem": {"cosh": {"d": _BAD}}, "optimizer": {"method": "gd", "L": 1.0}}, 4),
    ("lambda_max", {"problem": _quad4(lambda_max=_BAD)}, 2.0),
    ("theta", {"problem": _quad4(theta=_BAD)}, 0.5),
    ("seed", {"problem": _quad4(seed=_BAD)}, 3),
    ("sigma", {"problem": _quad4(sigma=_BAD)}, 1.0),
    ("noise_seed", {"problem": _quad4(sigma=0.5, noise_seed=_BAD)}, 2),
    ("T", {"T": _BAD}, 3),
    ("x0_seed", {"x0_seed": _BAD}, 1),
    ("x0", {"x0": [0.5, _BAD, 0.0, -1.0]}, 1.0),
    ("L", {"optimizer": {"method": "gd", "L": _BAD}}, 2.0),
    ("blocks", {"optimizer": {"method": "blocknorm", "blocks": [[0, _BAD], [2, 3]]}}, 1),
    ("weighted", {"optimizer": {"method": "nsd", "norm": {"weighted": [2.0, _BAD, 1.0, 1.0]}}}, 1.0),
    ("blockmax", {"optimizer": {"method": "nsd", "norm": {"blockmax": [[0, _BAD], [2, 3]]}}}, 1),
    ("L0", {"optimizer": {"method": "relaxed_nsd", "L0": _BAD}}, 2.0),
    ("L1", {"optimizer": {"method": "relaxed_nsd", "L0": 2.0, "L1": _BAD}}, 1.0),
    ("eps", {"optimizer": {"method": "relaxed_nsd", "L0": 2.0, "eps": _BAD}}, 1.0),
    ("constant", {"optimizer": {"method": "signgd", "step": {"constant": _BAD}}}, 1.0),
    ("step", {"optimizer": {"method": "adam", "step": _BAD}}, 1.0),
    ("beta1", {"optimizer": {"method": "adam", "beta1": _BAD}}, 0.5),
    ("beta2", {"optimizer": {"method": "adam", "beta2": _BAD}}, 0.5),
    ("epsilon", {"optimizer": {"method": "adam_averaged", "epsilon": _BAD}}, 1.0),
    ("seed", {"optimizer": {"method": "adam_shuffled", "seed": _BAD}}, 1),
    ("blocks", {"optimizer": {"method": "adam_shuffled", "blocks": [[0, _BAD], [2, 3]]}}, 1),
]

_GRID_NUMBER_FIELDS = [  # (field, a grid config with _BAD in it, a valid value there)
    ("d", {"d": _BAD}, 4),
    ("lambda_max_values", {"lambda_max_values": [50.0, _BAD]}, 1.0),
    ("theta_values", {"theta_values": [_BAD, 0.0]}, 1.0),
    ("T", {"T": _BAD}, 5),
    ("repeats", {"repeats": _BAD}, 1),
    ("skew_seed", {"skew_seed": _BAD}, 0),
    ("x0_seed", {"x0_seed": _BAD}, 1),
    ("sigma", {"sigma": _BAD}, 0.0),
]


def _as_string_or_bool(cases):
    """Per case, the valid value as a JSON string padded with blanks and as
    the boolean Python would read as that value: both pass float() or int()."""
    return [
        pytest.param(field, cfg, valid, bad, id=f"{field}-{bad!r}")
        for field, cfg, valid in cases
        for bad in (f" {valid} ", bool(valid))
    ]


def _main_on_config(tmp_path, capsys, command, cfg) -> tuple[int, str, str]:
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(path)])
    return (code, *capsys.readouterr())


def _names(line: str, field: str) -> bool:
    return f"{field!r}" in line or line.startswith(f"error: {field} ")


class TestJsonNumbers:
    """A numeric config field takes a JSON number: a string or a boolean is an
    input error naming the field, even where float() or int() would read it."""

    @pytest.mark.parametrize("field, cfg, valid, bad", _as_string_or_bool(_RUN_NUMBER_FIELDS))
    def test_run_field_exits_2_naming_it(self, tmp_path, capsys, field, cfg, valid, bad):
        cfg = {"problem": _quad4(), "optimizer": {"method": "gd"}, "T": 3, **cfg}
        code, out, _ = _main_on_config(tmp_path, capsys, "run", _put(cfg, valid))
        assert code == 0 and out.startswith(cli.TRACE_CSV_HEADER)
        code, out, err = _main_on_config(tmp_path, capsys, "run", _put(cfg, bad))
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and _names(line, field), line

    @pytest.mark.parametrize("field, cfg, valid, bad", _as_string_or_bool(_GRID_NUMBER_FIELDS))
    def test_quadgrid_field_exits_2_naming_it(self, tmp_path, capsys, field, cfg, valid, bad):
        cfg = {**GRID_CFG, "T": 5, "repeats": 2, "sigma": 0.0, **cfg}
        code, out, _ = _main_on_config(tmp_path, capsys, "quadgrid", _put(cfg, valid))
        assert code == 0 and out.startswith(GRID_CSV_HEADER)
        code, out, err = _main_on_config(tmp_path, capsys, "quadgrid", _put(cfg, bad))
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and _names(line, field), line

    def test_integral_float_block_indices_are_integers(self, tmp_path, capsys):
        outs = []
        for blocks in ([[0, 1], [2, 3]], [[0.0, 1.0], [2.0, 3.0]]):
            for optimizer in ({"method": "blocknorm", "blocks": blocks},
                              {"method": "nsd", "norm": {"blockmax": blocks}, "L": 1.0}):
                cfg = {"problem": _quad4(theta=0.5), "optimizer": optimizer, "T": 5}
                code, out, _ = _main_on_config(tmp_path, capsys, "run", cfg)
                assert code == 0
                outs.append(out)
        assert outs[:2] == outs[2:]

    @pytest.mark.parametrize("index", [0.5, 1.5])
    def test_fractional_block_index_exits_2(self, tmp_path, capsys, index):
        cfg = {"problem": _quad4(), "optimizer": {"method": "blocknorm", "blocks": [[0, index], [2, 3]]}}
        code, out, err = _main_on_config(tmp_path, capsys, "run", cfg)
        assert (code, out) == (2, "")
        assert err.startswith("error: 'blocks' must be a list of index lists")


_FAMILY_CFGS = {  # per command, a config with "BAD" where a test puts a family parameter
    "run": {
        "d": {"problem": {"quadratic": {"d": "BAD", "lambda_max": 2.0}}},
        "lambda_max": {"problem": {"quadratic": {"d": 4, "lambda_max": "BAD"}}},
        "theta": {"problem": {"quadratic": {"d": 4, "lambda_max": 2.0, "theta": "BAD"}}},
    },
    "quadgrid": {
        "d": {"d": "BAD"},
        "lambda_max": {"d": 4, "lambda_max_values": [2.0, "BAD"]},
        "theta": {"d": 4, "theta_values": ["BAD", 0.5]},
    },
}

_SEED_CFGS = [  # (command, seed key, a config with the seed -5 there)
    pytest.param("run", "seed", {"problem": _quad4(seed=-5)}, id="run-quadratic-seed"),
    pytest.param("run", "noise_seed", {"problem": _quad4(sigma=0.5, noise_seed=-5)}, id="run-noise_seed"),
    pytest.param("run", "x0_seed", {"problem": _quad4(), "x0_seed": -5}, id="run-x0_seed"),
    pytest.param("run", "seed", {"problem": _quad4(), "optimizer": {"method": "adam_shuffled", "seed": -5}},
                 id="run-adam_shuffled-seed"),
    pytest.param("quadgrid", "skew_seed", {"d": 4, "skew_seed": -5}, id="quadgrid-skew_seed"),
    pytest.param("quadgrid", "x0_seed", {"d": 4, "x0_seed": -5}, id="quadgrid-x0_seed"),
]


class TestFamilyRules:
    """run and quadgrid check the quadratic family's parameters by the same
    rules, and read every seed by the same reader, each in one error line."""

    @pytest.mark.parametrize("command", ["run", "quadgrid"])
    @pytest.mark.parametrize("key, text, message", [
        pytest.param("lambda_max", "1e999", "lambda_max must lie in [1, 1e8], got inf", id="lambda_max-1e999"),
        pytest.param("lambda_max", "1e308", "lambda_max must lie in [1, 1e8], got 1e+308", id="lambda_max-1e308"),
        pytest.param("lambda_max", "2e8", "lambda_max must lie in [1, 1e8], got 200000000.0", id="lambda_max-2e8"),
        pytest.param("lambda_max", "0.5", "lambda_max must lie in [1, 1e8], got 0.5", id="lambda_max-0.5"),
        pytest.param("theta", "1.5", "theta must lie in [0, 1], got 1.5", id="theta-1.5"),
        pytest.param("d", "1", "d must be at least 2, got 1", id="d-1"),
    ])
    def test_bad_family_parameter_exits_2_with_the_rule(self, tmp_path, capsys, command, key, text, message):
        cfg = {"optimizer": {"method": "gd"}, "T": 3} if command == "run" else {"T": 3, "repeats": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, **_FAMILY_CFGS[command][key]}).replace('"BAD"', text))
        code = cli.main([command, "--config", str(path)])
        assert (code, *capsys.readouterr()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, key, cfg", _SEED_CFGS)
    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys, command, key, cfg):
        cfg = {"optimizer": {"method": "gd"}, "T": 3, **cfg} if command == "run" else {"T": 3, "repeats": 2, **cfg}
        code, out, err = _main_on_config(tmp_path, capsys, command, cfg)
        assert (code, out) == (2, "")
        [line] = [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert line == f"error: {key!r} must be a nonnegative integer, got -5", err


class TestConfigKeys:
    """Every config object rejects a key it does not read and requires the
    keys it has no default for, in one error line naming the key."""

    @pytest.mark.parametrize(
        "command, key, cfg",
        [
            ("run", "problem", {"optimizer": {"method": "gd"}}),
            ("run", "lambda_max", {"problem": {"quadratic": {"d": 3}}, "optimizer": {"method": "gd"}}),
            ("run", "x", {"problem": {"cosh": {"d": 2, "x": 1}}, "optimizer": {"method": "gd", "L": 1.0}}),
            ("run", "blocks", {"problem": QUAD3, "optimizer": {"method": "blocknorm"}}),
            ("run", "L0", {"problem": COSH2, "optimizer": {"method": "relaxed_nsd"}}),
            ("run", "x", {"problem": QUAD3, "optimizer": {"method": "signsgd", "step": {"constant": 1, "x": 2}}}),
            ("run", "seed", {"problem": QUAD3, "optimizer": {"method": "adam", "seed": 1}}),
            ("run", "blocks", {"problem": QUAD3, "optimizer": {"method": "momentum_sign", "blocks": [[0, 1, 2]]}}),
            ("run", "beta2", {"problem": QUAD3, "optimizer": {"method": "momentum_sign", "beta2": 0.9}}),
            ("quadgrid", "d", {"lambda_max_values": [2.0], "theta_values": [0.0], "T": 2, "repeats": 1}),
        ],
    )
    def test_unknown_or_missing_key_exits_2_naming_it(self, tmp_path, capsys, command, key, cfg):
        code, out, err = _main_on_config(tmp_path, capsys, command, dict(cfg, T=3) if command == "run" else cfg)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert line.startswith("error: ") and repr(key) in line, line


class TestNormKind:
    @pytest.mark.parametrize("obj, kind", zip(
        ["euclidean", "max", "one", {"weighted": [0.5, 1, 2, 4]}, {"blockmax": [[0, 1], [2, 3]]}],
        [Euclidean(), Max(), One(), WeightedDiag((0.5, 1.0, 2.0, 4.0)), BlockMax(BlockPartition(((0, 1), (2, 3))))],
    ))
    def test_reads_each_kind(self, obj, kind):
        assert cli._norm_kind(obj) == kind

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            cli._norm_kind("spectral")

    @pytest.mark.parametrize("optimizer, error, Ls", [
        ({"method": "nsd", "norm": {"weighted": [1, 2, 3]}}, "error: weight vector has length 3, expected 4\n",
         ({}, {"L": 2.0})),
        ({"method": "nsd", "norm": {"blockmax": [[0, 1], [2]]}}, "error: partition covers 3 indices, expected 4\n",
         ({}, {"L": 2.0})),
        ({"method": "blocknorm", "blocks": [[0, 1], [2]]}, "error: partition covers 3 indices, expected 4\n",
         ({}, {"L": 2.0})),
        # the moment methods take no L
        ({"method": "adam_shuffled", "blocks": [[0, 1], [2]]}, "error: partition covers 3 indices, expected 4\n",
         ({},)),
        ({"method": "adam_averaged", "blocks": [[0, 1], [2]]}, "error: partition covers 3 indices, expected 4\n",
         ({},)),
    ], ids=["weighted", "blockmax", "blocknorm", "adam_shuffled", "adam_averaged"])
    def test_kind_of_another_dimension_is_one_error_with_or_without_L(self, tmp_path, capsys, optimizer, error, Ls):
        # without L the run first computes the quadratic's constant in the kind, with L it steps at once
        for L in Ls:
            cfg = {"problem": _quad4(), "optimizer": {**optimizer, **L}, "T": 3}
            assert _main_on_config(tmp_path, capsys, "run", cfg) == (2, "", error)


class TestFlushedExits:
    """Output that reaches its reader only when the process shuts down
    normally, through the real entry (``python -m normdescent.cli``)."""

    def test_quadgrid_out_file_bytes_equal_stdout(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CFG))
        out = tmp_path / "grid.csv"
        a = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        b = run_cli(["quadgrid", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert a.returncode == b.returncode == 0, a.stderr + b.stderr
        assert b.stdout == "" and a.stderr == b.stderr
        assert len(a.stdout.splitlines()) == 5
        assert out.read_bytes() == a.stdout.encode()

    def test_quadgrid_divergence_keeps_rows_and_starting_points(self, tmp_path, capsys):
        """Exit 3: the finished rows reach stdout and ``--out``, and the
        starting points of the finished cells and the diverging one reach
        ``--dump-x0``, byte for byte as in-process."""
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_DIVERGES_AFTER_ONE_ROW))
        out = tmp_path / "grid.csv"
        a = run_cli(["quadgrid", "--config", str(cfg), "--dump-x0", "a"], tmp_path)
        b = run_cli(["quadgrid", "--config", str(cfg), "--dump-x0", "b", "--out", str(out)], tmp_path)
        assert a.returncode == b.returncode == 3, a.stderr + b.stderr
        assert b.stdout == "" and a.stderr == b.stderr
        assert len(a.stdout.splitlines()) == 2  # the header and one finished row
        assert out.read_bytes() == a.stdout.encode()
        assert cli.main(["quadgrid", "--config", str(cfg), "--dump-x0", str(tmp_path / "c")]) == 3
        assert capsys.readouterr().out == a.stdout
        dumps = [{p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in "abc"]
        assert len(dumps[0]) == 2 and dumps[0] == dumps[1] == dumps[2]


class TestProcessEntry:
    """Run as a program, the module imports with the collector off, and
    ``entry`` freezes the import-time heap and turns the collector back on;
    ``main`` never touches the collector."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_was(self, tmp_path, capsys, matrix_file, enabled):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(GRID_CFG))
        diverging_grid = tmp_path / "diverging.json"
        diverging_grid.write_text(json.dumps(GRID_DIVERGES_AFTER_ONE_ROW))
        argvs = {
            0: [["analyze", str(matrix_file)], ["run", "--config", _run_cfg(tmp_path, "ok.json", T=5)],
                ["quadgrid", "--config", str(grid)]],
            2: [["analyze", str(tmp_path / "missing.txt")],
                ["run", "--config", _run_cfg(tmp_path, "bad.json", T="5")],
                ["quadgrid", "--config", str(matrix_file)]],
            3: [["run", "--config", _run_cfg(tmp_path, "blows.json", **TestStreamedOutput.LATE_BLOW_UP)],
                ["quadgrid", "--config", str(diverging_grid)]],
        }
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            for code, cases in argvs.items():
                for argv in cases:
                    assert cli.main(argv) == code, capsys.readouterr().err
                    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen), argv
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_entry_freezes_the_import_time_heap(self, tmp_path, matrix_file):
        # the module runs as __main__, as under -m; the atexit hook sees the
        # collector's permanent generation after main has returned
        hook = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
            "runpy.run_module('normdescent.cli', run_name='__main__')\n"
        )
        res = subprocess.run([sys.executable, "-c", hook, "analyze", str(matrix_file)],
                             capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["Linf_exact"] == 7.0
        label, count = res.stderr.split()
        assert label == "frozen" and int(count) > 10_000  # numpy and the package: ~20k objects

    def test_no_collection_before_the_freeze(self, tmp_path, matrix_file):
        # run as __main__, the module imports numpy and the layers with the
        # collector off, so the first collection comes after entry's freeze.
        # The interpreter compiles the module's source before its first line
        # runs, so the child first writes the module's bytecode cache, as an
        # installed package has one; the atexit collection shows the hook runs.
        hook = (
            "import atexit, gc, importlib.util, runpy, sys\n"
            f"sys.pycache_prefix, sys.dont_write_bytecode = {str(tmp_path / 'pycache')!r}, False\n"
            "importlib.util.find_spec('normdescent.cli').loader.get_code('normdescent.cli')\n"
            "frozen = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and frozen.append(gc.get_freeze_count()))\n"
            "atexit.register(lambda: (gc.collect(), print(*frozen, file=sys.stderr)))\n"
            "runpy.run_module('normdescent.cli', run_name='__main__')\n"
        )
        res = subprocess.run([sys.executable, "-c", hook, "analyze", str(matrix_file)],
                             capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["Linf_exact"] == 7.0
        frozen = [int(count) for count in res.stderr.split()]
        assert frozen and min(frozen) > 10_000, frozen  # numpy and the package: ~20k objects

    def test_library_import_leaves_the_collector_alone(self, tmp_path):
        code = "import gc, normdescent.cli; print(gc.isenabled(), gc.get_freeze_count())"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             cwd=tmp_path, env=child_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["True", "0"]

    def test_installed_script_runs_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pyproject.toml")
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"norm-descent": "normdescent.cli:entry"}


# The exit-code fuzz tests draw a well-formed run or grid config, then overwrite
# up to two of its fields with values of the wrong type or out of range.  A
# junk value can land on "d", "T" or "repeats", so junk numbers stay below 7
# and strings hold no digits: no example asks for a large problem, a long run
# or a large batch.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.floats(-3.0, 6.0),
    st.sampled_from([0.0, -1.0, 1e-300, math.inf, -math.inf, math.nan]),
    st.text(alphabet="ab .", max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.just({"a": 1}),
)
_ADAM_KEYS = ["step", "beta1", "beta2", "epsilon"]
_METHOD_KEYS = {  # method -> (required keys, optional keys), as README's method table
    "gd": ([], ["L"]), "signgd_normscaled": ([], ["L"]), "cd": ([], ["L"]),
    "blocknorm": (["blocks"], ["L"]), "nsd": ([], ["norm", "L"]),
    "relaxed_nsd": (["L0"], ["L1", "eps", "norm"]),
    "signgd": ([], ["step"]), "signsgd": ([], ["step"]),
    "adam": ([], _ADAM_KEYS), "adam_shuffled": ([], _ADAM_KEYS + ["blocks", "seed"]),
    "adam_averaged": ([], _ADAM_KEYS + ["blocks"]), "momentum_sign": ([], ["step", "beta1"]),
}


@st.composite
def _run_configs(draw):
    d = draw(st.integers(2, 4))
    if draw(st.booleans()):
        problem = {"quadratic": {
            "d": d,
            "lambda_max": draw(st.sampled_from([1.0, 5.0, 50.0])),
            "theta": draw(st.floats(0.0, 1.0)),
            "seed": draw(st.integers(0, 5)),
            "sigma": draw(st.sampled_from([0.0, 0.5, 1e300])),
        }}
    else:
        problem = {"cosh": {"d": d}}
    method = draw(st.sampled_from(sorted(_METHOD_KEYS)))
    required, optional = _METHOD_KEYS[method]
    if "cosh" in problem and "L" in optional:
        required = required + ["L"]  # only quadratics have a default L
    values = {
        "L": st.sampled_from([1e-3, 1.0, 10.0, 1e300]),
        "L0": st.sampled_from([1.0, 3.0]),
        "L1": st.sampled_from([0.0, 1.0]),
        "eps": st.sampled_from([1e-3, 1e-300]),
        "blocks": st.sampled_from([[list(range(d))], [[0], list(range(1, d))]]),
        "norm": st.sampled_from(["max", "one", "euclidean", {"weighted": [2.0] * d}]),
        "step": (st.sampled_from(["inv_sqrt", {"constant": 0.1}])
                 if method in ("signgd", "signsgd") else st.sampled_from([0.05, 1.0])),
        "beta1": st.sampled_from([0.0, 0.9]),
        "beta2": st.sampled_from([0.0, 0.999]),
        "epsilon": st.sampled_from([0.0, 1e-8]),
        "seed": st.integers(0, 5),
    }
    optimizer = {"method": method}
    for key in required + sorted(draw(st.sets(st.sampled_from(optional)))):
        optimizer[key] = draw(values[key])
    cfg = {"problem": problem, "optimizer": optimizer, "T": draw(st.integers(1, 30))}
    if draw(st.booleans()):
        cfg["x0"] = draw(st.lists(st.sampled_from([0.0, 1.0, -3.0, 5.0, 800.0]), min_size=d, max_size=d))
    else:
        cfg["x0_seed"] = draw(st.integers(0, 5))
    fields = [(cfg, k) for k in cfg] + [(optimizer, k) for k in optimizer]
    fields += [(spec, k) for spec in problem.values() for k in spec]
    for i in draw(st.lists(st.integers(0, len(fields) - 1), max_size=2)):
        container, key = fields[i]
        container[key] = draw(_JUNK)
    return cfg


@st.composite
def _grid_configs(draw):
    axis = lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True)
    cfg = {
        "d": draw(st.integers(2, 5)),
        "lambda_max_values": draw(axis([1.0, 2.0, 50.0])),
        "theta_values": draw(axis([0.0, 0.5, 1.0])),
        "T": draw(st.integers(1, 5)),
        "repeats": draw(st.integers(1, 4)),
        "skew_seed": draw(st.integers(0, 5)),
        "x0_seed": draw(st.integers(0, 5)),
        "sigma": draw(st.sampled_from([0.0, 0.5, 1e300])),
    }
    fields = [(cfg, k) for k in cfg]
    fields += [(cfg[k], i) for k in ("lambda_max_values", "theta_values") for i in range(len(cfg[k]))]
    for i in draw(st.lists(st.integers(0, len(fields) - 1), max_size=2)):
        container, key = fields[i]
        container[key] = draw(_JUNK)
    return cfg


@st.composite
def _matrix_texts(draw):
    """A symmetric matrix file of dimension d <= 6, possibly spoiled by one fault."""
    d = draw(st.integers(1, 6))
    entry = st.floats(-5.0, 5.0, allow_nan=False)
    a = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)))
    a = a + a.T
    fault = draw(st.sampled_from(["none", "ragged", "text", "nonfinite", "asymmetric", "zero", "huge"]))
    if fault == "zero":
        a[:] = 0.0
    if fault == "huge":  # finite entries whose sums may overflow
        a = a * 1e307
    if fault == "asymmetric" and d > 1:
        a[0, 1] += draw(st.sampled_from([2e-12, 1e-6, 1.0]))
    rows = [[f"{v:.17g}" for v in row] for row in a]
    i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if fault == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
    if fault == "text":
        rows[i][j] = draw(st.sampled_from(["x", "1..2", "1,5", "--1"]))
    if fault == "nonfinite":
        rows[i][j] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    return f"{d}\n" + "".join(" ".join(row) + "\n" for row in rows)


def _main_obeys_exit_contract(argv) -> tuple[int, str]:
    """Runs the CLI in-process; checks that no RuntimeWarning is issued,
    exit 0, 2 or 3, an error line on failure and empty stdout on exit 2;
    returns the code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert "error:" in err.getvalue(), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
    return code, out.getvalue()


class TestExitCodeContract:
    def test_fuzzed_method_keys_are_the_methods_fields(self):
        # the strategies draw each method's keys from _METHOD_KEYS; the CLI reads them from cli._METHODS
        def split(table):
            required = {key for key, (_, default) in table.items() if default is REQUIRED}
            return sorted(required), sorted(table.keys() - required)

        assert {m: (sorted(req), sorted(opt)) for m, (req, opt) in _METHOD_KEYS.items()} == {
            m: split(table) for m, (table, _) in cli._METHODS.items()
        }

    def test_bare_memory_error_exits_2_naming_it(self, matrix_file, monkeypatch, capsys):
        def no_memory(matrix):
            raise MemoryError

        monkeypatch.setattr(cli, "analyze", no_memory)
        assert cli.main(["analyze", str(matrix_file)]) == 2
        assert capsys.readouterr() == ("", "error: MemoryError\n")

    @settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=_run_configs())
    @example(cfg={"problem": QUAD3, "optimizer": {"method": "blocknorm", "blocks": 3}, "T": 3})
    @example(cfg={"problem": QUAD3, "optimizer": {"method": "gd"}, "T": [3]})
    @example(cfg={"problem": COSH2, "optimizer": {"method": "relaxed_nsd", "L0": -1}, "T": 3})
    @example(cfg={"problem": COSH2, "optimizer": {"method": "relaxed_nsd", "L0": 1, "eps": 0}, "T": 3})
    @example(cfg={"problem": COSH2, "optimizer": {"method": "gd", "L": 1.0}, "x0": [800, 0], "T": 3})
    @example(cfg={"problem": {"quadratic": {"d": 3, "lambda_max": 1e308, "theta": 0.5}},
                  "optimizer": {"method": "gd"}, "T": 3})
    @example(cfg={"problem": COSH2, "optimizer": {"method": "gd", "L": 0.001}, "x0": [5, 0], "T": 3})
    @example(cfg={"problem": {"quadratic": {"d": 16, "lambda_max": 8e307, "theta": 1}},
                  "optimizer": {"method": "signgd_normscaled"}, "T": 3})
    # an allocation above 2**62 bytes, which numpy refuses on any host before mapping a page
    @example(cfg={"problem": {"quadratic": {"d": 10**9, "lambda_max": 2.0}}, "optimizer": {"method": "gd"}, "T": 3})
    def test_run_exits_0_2_or_3_and_never_raises(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("fuzz") / "run.json"
        path.write_text(json.dumps(cfg))
        code, out = _main_obeys_exit_contract(["run", "--config", str(path)])
        if code == 3:
            assert out.startswith("t,f,dual_grad_norm,dist_sq\n")

    @settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=_grid_configs())
    @example(cfg=dict(GRID_CFG, skew_seed=-1))
    @example(cfg=dict(GRID_CFG, lambda_max_values=[math.inf]))
    @example(cfg=dict(GRID_CFG, lambda_max_values=[1.0, 1e308]))
    @example(cfg=dict(GRID_CFG, lambda_max_values=[2.0, 2.0]))
    @example(cfg={"d": 8, "lambda_max_values": [5e307], "theta_values": [1], "T": 5, "repeats": 2})
    @example(cfg=dict(GRID_CFG, d=8, repeats=10**17))  # starting points above 2**62 bytes, refused at once
    def test_quadgrid_exits_0_2_or_3_and_never_raises(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("fuzz") / "grid.json"
        path.write_text(json.dumps(cfg))
        code, out = _main_obeys_exit_contract(["quadgrid", "--config", str(path)])
        if code in (0, 3):
            assert out.startswith(GRID_CSV_HEADER + "\n")

    @settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(text=_matrix_texts())
    @example(text="3\n" + "5e307 5e307 5e307\n" * 3)
    @example(text="2\n" + "1e308 1e308\n" * 2)
    @example(text="1\n1e308\n")
    def test_analyze_exits_0_2_or_3_and_never_raises(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "m.txt"
        path.write_text(text)
        code, out = _main_obeys_exit_contract(["analyze", str(path)])
        if code == 0:
            assert set(json.loads(out)) >= {"L2", "rho_diag", "Linf_exact"}

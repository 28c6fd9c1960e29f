import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import normdescent
from normdescent import analysis, cli, problems
from normdescent import (
    Euclidean, Max, SymMatrix, make_quadratic, quad_oracle, run_steepest_descent, smoothness_constant,
)
from normdescent.optimizers import ROW_CHUNK, DivergenceError, Trace
from normdescent.experiments import GRID_CSV_HEADER, GridConfig, grid_csv_lines, run_quad_grid


# Directory holding the imported package, whether installed or run from src/.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(normdescent.__file__)))


def run_cli(args, tmp_path, env_extra=None):
    # The child runs in tmp_path, where a relative PYTHONPATH entry such as
    # "src" no longer resolves, so hand it the absolute package root first.
    env = dict(os.environ)
    env.pop("NORM_DESCENT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "normdescent.cli", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
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
        assert report["lsep_exact_2x2"] == 7.0
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
        d = 26
        rows = "\n".join(" ".join("1" if i == j else "0" for j in range(d)) for i in range(d))
        path = tmp_path / "big.txt"
        path.write_text(f"{d}\n{rows}\n")
        res = run_cli(["analyze", str(path)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "Linf_exact" not in json.loads(res.stdout)
        assert "cap" in res.stderr


RUN_CFG = {
    "problem": {"quadratic": {"d": 2, "lambda_max": 1.0, "theta": 0.0, "seed": 3}},
    "optimizer": {"method": "gd", "L": 1.0},
    "T": 3,
    "x0_seed": 1,
}


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
        L2 = smoothness_constant(p.matrix, Euclidean())
        tr = run_steepest_descent(quad_oracle(p), Euclidean(), L2, x0, 10, x_star=np.zeros(4))
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
        linf = smoothness_constant(p.matrix, Max())
        tr = run_steepest_descent(quad_oracle(p), Max(), linf, x0, 10, x_star=np.zeros(4))
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
        cfg_obj = {
            "problem": {"quadratic": {"d": 4, "lambda_max": 1e11, "theta": 0.0, "seed": 5}},
            "optimizer": {"method": "signsgd", "step": {"constant": 10.0}},
            "T": 50,
            "x0_seed": 2,
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
            {"problem": QUAD3, "optimizer": {"method": "adam", "blocks": [0, 1, 2]}},
            {"problem": QUAD3, "optimizer": {"method": "gd"}, "T": [3]},
            {"problem": QUAD3, "optimizer": {"method": "gd"}, "x0": {"a": 1}},
            {"problem": COSH2, "optimizer": {"method": "relaxed_nsd", "L0": -1}},
            {"problem": COSH2, "optimizer": {"method": "relaxed_nsd", "L0": 1, "eps": 0}},
            {"problem": COSH2, "optimizer": {"method": "relaxed_nsd", "L0": 1, "L1": -1}},
            {"problem": COSH2, "optimizer": {"method": "gd", "L": 1.0}, "x0": [800, 0]},
            {"problem": {"quadratic": {"d": 25, "lambda_max": 2.0}},
             "optimizer": {"method": "signgd_normscaled"}},
            # epsilon 0 with a zero gradient coordinate: rejected by the runner itself
            {"problem": COSH2, "optimizer": {"method": "adam", "epsilon": 0}, "x0": [0, 1]},
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

    @pytest.mark.parametrize("sigma", [-1, math.nan, "nan"])
    def test_bad_sigma_exits_2(self, tmp_path, capsys, sigma):
        # json.dumps writes math.nan as the bare NaN that json.load reads back
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "problem": {"quadratic": {"d": 3, "lambda_max": 2.0, "sigma": sigma}},
            "optimizer": {"method": "gd"}, "T": 3,
        }))
        assert cli.main(["run", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: sigma must be nonnegative\n"

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
            ("seed", {"problem": QUAD3, "optimizer": {"method": "adam", "seed": True}}),
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
        cfg = {"problem": {"quadratic": spec}, "optimizer": {"method": "adam", "seed": 2},
               "T": 5, "x0_seed": 1}
        as_floats = {"problem": {"quadratic": {k: float(v) for k, v in spec.items()}},
                     "optimizer": {"method": "adam", "seed": 2.0}, "T": 5.0, "x0_seed": 1.0}
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

    def test_blow_up_before_zero_epsilon_error_exits_3(self, tmp_path):
        # f(x0) = cosh(30) - 1 exceeds the blow-up threshold at t = 0, before the
        # first update would meet the zero second moment of coordinate 1
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": COSH2, "optimizer": {"method": "adam", "epsilon": 0}, "x0": [30, 0], "T": 3,
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 3, res.stderr
        assert len(res.stdout.splitlines()) == 2  # header and the t = 0 row
        assert "divergence at step 0" in res.stderr and "exceeded" in res.stderr

    @pytest.mark.parametrize("method", ["relaxed_nsd", "nsd"])
    def test_stopping_run_blowing_up_at_start_prints_its_dual_norm(self, tmp_path, method):
        optimizer = {"method": method, **({"L0": 2.0, "L1": 1.0} if method == "relaxed_nsd" else {"L": 2.0})}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"problem": COSH2, "optimizer": optimizer, "x0": [30, 0], "T": 3}))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 3, res.stderr
        rows = res.stdout.splitlines()[1:]
        assert len(rows) == 1 and "divergence at step 0" in res.stderr
        assert float(rows[0].split(",")[2]) == math.sinh(30.0)  # one-norm of sinh(x0)

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

    def test_overflowing_hessian_exits_2(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 3, "lambda_max": 1e308, "theta": 0.5}},
            "optimizer": {"method": "gd"},
        }))
        res = run_cli(["run", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["error: matrix entries must be finite"]

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

    @pytest.mark.parametrize("lambda_max", [1e15, 1e16, 1e17, 1e18])
    def test_huge_lambda_max_builds(self, tmp_path, lambda_max):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 4, "lambda_max": lambda_max, "theta": 0.5}},
            "optimizer": {"method": "gd"}, "T": 2, "x0": [1e-4, -1e-4, 1e-4, 1e-4],
        }))
        code, out = _main_obeys_exit_contract(["run", "--config", str(cfg)])
        assert code == 0 and len(out.splitlines()) == 4

    def test_indefinite_hessian_exits_2(self, tmp_path, monkeypatch):
        # a Hessian whose smallest eigenvalue is -1e-6 lambda_max, far beyond
        # rounding at that scale, is still no quadratic problem
        def indefinite(eigs, skew, theta):
            return SymMatrix.diagonal(np.concatenate([[-1e-6 * eigs[-1]], eigs[1:]]))

        monkeypatch.setattr(problems, "rotated_hessian", indefinite)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": {"quadratic": {"d": 4, "lambda_max": 1e17, "theta": 0.5}},
            "optimizer": {"method": "gd"}, "T": 2,
        }))
        code, _ = _main_obeys_exit_contract(["run", "--config", str(cfg)])
        assert code == 2


def _per_row_csv(trace) -> str:
    """The trace CSV formatted one row at a time."""
    n = len(trace)
    dist = trace.dist_sq if trace.dist_sq is not None else [math.nan] * n
    rows = ["%d,%.17g,%.17g,%.17g" % (t, trace.f[t], trace.dual_grad_norm[t], dist[t]) for t in range(n)]
    return "\n".join([cli.TRACE_CSV_HEADER, *rows])


class TestTraceCsv:
    """One format operation over the table gives the bytes of one per row."""

    @pytest.mark.parametrize("rows, with_dist", [
        ([[1.5, 2.0, 0.25]], True),  # one row
        ([[1.5, 2.0, 0.25]], False),
        ([[0.1, -0.0, 5e-324], [-0.0, 2.2250738585072014e-308 / 3, 1e300],
          [math.inf, math.nan, -1e-310]], True),  # -0.0, subnormals, non-finite values
        ([[1.0 / 3, 2.0 / 3, 0.0]] * 5, False),  # no dist_sq: a NaN column
    ])
    def test_bytes_equal_per_row_formatting(self, rows, with_dist):
        a = np.array(rows)
        trace = Trace(a[:, 0], a[:, 1], a[:, 2] if with_dist else None, np.zeros(2))
        assert "\n".join(cli._trace_csv_lines(trace)) == _per_row_csv(trace)

    @pytest.mark.parametrize("n", [ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 1])
    @pytest.mark.parametrize("with_dist", [True, False])
    def test_chunks_join_to_the_per_row_table(self, n, with_dist):
        a = np.random.default_rng(n).standard_normal((3, n)) * 1e3
        trace = Trace(a[0], np.abs(a[1]), np.abs(a[2]) if with_dist else None, np.zeros(2))
        pieces = list(cli._trace_csv_lines(trace))
        assert len(pieces) == 1 + -(-n // ROW_CHUNK)  # the header, then one string per chunk
        assert "\n".join(pieces) == _per_row_csv(trace)

    def test_long_and_empty_traces(self):
        a = np.random.default_rng(3).standard_normal((3, 2000)) * 10.0 ** np.arange(-200, 200, 0.2)
        trace = Trace(a[0], np.abs(a[1]), np.abs(a[2]), np.zeros(2))
        assert "\n".join(cli._trace_csv_lines(trace)) == _per_row_csv(trace)
        empty = Trace(np.zeros(0), np.zeros(0), None, np.zeros(2))
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
                np.random.default_rng(7).standard_normal(8), 5000, x_star=np.zeros(8),
            )
        assert ROW_CHUNK < err.value.step < 5000
        assert res.stderr == f"error: {err.value}\n"
        assert res.stdout == _per_row_csv(err.value.trace) + "\n"
        assert len(res.stdout.splitlines()) == err.value.step + 2  # header, rows 0..step

    def test_a_reader_that_stops_early_gets_no_traceback(self, tmp_path):
        """``run ... | head -1``: the rows after the reader left are dropped
        quietly, and the run exits as if they had been written."""
        cfg = _run_cfg(tmp_path, "run.json", T=20 * ROW_CHUNK)  # ~1.3 MB, far past a pipe's buffer
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "normdescent.cli", "run", "--config", cfg],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=env,
        )
        assert proc.stdout.readline() == b"t,f,dual_grad_norm,dist_sq\n"
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
        cells = run_quad_grid(GridConfig.from_json(GRID_CFG))
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
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(GRID_CFG))
        runs = [
            run_cli(["quadgrid", "--config", str(cfg)], tmp_path,
                    env_extra={"NORM_DESCENT_THREADS": n})
            for n in ("1", "4")
        ]
        runs.append(run_cli(["quadgrid", "--config", str(cfg)], tmp_path))
        for res in runs:
            assert res.returncode == 0, res.stderr
            assert len(res.stdout.splitlines()) == 5  # header plus 4 cells
        assert runs[0].stdout == runs[1].stdout == runs[2].stdout

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
                L = smoothness_constant(p.matrix, kind)
                tr = run_steepest_descent(quad_oracle(p), kind, L, start, 50, x_star=np.zeros(4))
                acc.append(tr.dist_sq[-1])
        assert float(row[5]) == pytest.approx(np.mean(dist_gd), rel=1e-15)
        assert float(row[6]) == pytest.approx(np.mean(dist_sg), rel=1e-15)

    @pytest.mark.parametrize(
        "grid, finished",
        [
            ({"d": 4, "lambda_max_values": [2], "theta_values": [0.5], "T": 5,
              "repeats": 2, "sigma": 1e300}, 0),
            ({"d": 4, "lambda_max_values": [1, 2, 5, 20, 100], "theta_values": [0, 0.5, 1],
              "T": 50, "repeats": 4, "sigma": 3e5}, 1),
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
        assert "Traceback" not in res.stderr

    def test_dimension_cap_exits_2(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID_CFG, d=25)))
        res = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2
        assert res.stdout == ""
        [line] = res.stderr.splitlines()
        assert line.startswith("error: ") and "exceeds cap 24" in line

    def test_invalid_config_exits_2(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(dict(GRID_CFG, repeats=0)))
        res = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2

    def test_overflowing_hessian_exits_2(self, tmp_path):
        # lambda_max is finite, but the cell's Hessian overflows
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(
            {"d": 3, "lambda_max_values": [1, 1e308], "theta_values": [0, 0.5], "T": 5, "repeats": 2}
        ))
        res = run_cli(["quadgrid", "--config", str(cfg)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: cell lambda_max=1e+308 theta=0: matrix entries must be finite"
        ]

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
        assert GridConfig.from_json(dict(GRID_CFG, **as_floats)) == GridConfig.from_json(GRID_CFG)


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
_ADAM_KEYS = ["step", "beta1", "epsilon", "seed", "blocks"]
_METHOD_KEYS = {  # method -> (required keys, optional keys)
    "gd": ([], ["L"]), "signgd_normscaled": ([], ["L"]), "cd": ([], ["L"]),
    "blocknorm": (["blocks"], ["L"]), "nsd": ([], ["norm", "L"]),
    "relaxed_nsd": (["L0"], ["L1", "eps", "norm"]),
    "signgd": ([], ["step"]), "signsgd": ([], ["step"]),
    "adam": ([], _ADAM_KEYS), "adam_shuffled": ([], _ADAM_KEYS),
    "adam_averaged": ([], _ADAM_KEYS), "momentum_sign": ([], _ADAM_KEYS),
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
    axis = lambda values: st.lists(st.sampled_from(values), min_size=1, max_size=3)
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
    fault = draw(st.sampled_from(["none", "ragged", "text", "nonfinite", "asymmetric", "zero"]))
    if fault == "zero":
        a[:] = 0.0
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
    def test_quadgrid_exits_0_2_or_3_and_never_raises(self, tmp_path_factory, cfg):
        path = tmp_path_factory.mktemp("fuzz") / "grid.json"
        path.write_text(json.dumps(cfg))
        code, out = _main_obeys_exit_contract(["quadgrid", "--config", str(path)])
        if code in (0, 3):
            assert out.startswith(GRID_CSV_HEADER + "\n")

    @settings(deadline=None, max_examples=300, suppress_health_check=[HealthCheck.too_slow])
    @given(text=_matrix_texts())
    def test_analyze_exits_0_2_or_3_and_never_raises(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("fuzz") / "m.txt"
        path.write_text(text)
        code, out = _main_obeys_exit_contract(["analyze", str(path)])
        if code == 0:
            assert set(json.loads(out)) >= {"L2", "rho_diag", "Linf_exact"}

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def test_adam_variants_demo_runs():
    # the script puts the repository's src/ on sys.path itself
    res = subprocess.run(
        [sys.executable, str(SCRIPTS / "adam_variants_demo.py"), "--T", "20", "--seeds", "2"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "final objective after T=20 (median over 2 seeds):"
    variants = [ln.split()[0] for ln in lines[1:]]
    assert variants == ["standard", "shuffled", "averaged", "momentum_sign"]
    for ln in lines[1:]:
        float(ln.split()[1])


def test_quadgrid_d64_is_the_paper_grid_at_d_64():
    paper = json.loads((SCRIPTS / "quadgrid_paper.json").read_text())
    d64 = json.loads((SCRIPTS / "quadgrid_d64.json").read_text())
    assert d64 == dict(paper, d=64)


def test_quadgrid_d256_is_the_paper_grid_at_d_256():
    # configs only: the d = 256 grid takes seconds, so CI runs it, not Tier-1
    paper = json.loads((SCRIPTS / "quadgrid_paper.json").read_text())
    d256 = json.loads((SCRIPTS / "quadgrid_d256.json").read_text())
    assert d256 == dict(paper, d=256)


def test_quadgrid_d64_runs_every_cell():
    # the column check closes Linf for every cell, so d = 64 needs no walk
    res = subprocess.run(
        [sys.executable, "-m", "normdescent.cli", "quadgrid", "--config", str(SCRIPTS / "quadgrid_d64.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))),
    )
    assert res.returncode == 0, res.stderr
    assert len(res.stdout.splitlines()) == 43

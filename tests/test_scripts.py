import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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

import ast
import os
import subprocess
import sys
from pathlib import Path

import normdescent

PACKAGE = Path(normdescent.__file__).resolve().parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so no check of the package may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_import_leaves_dataclasses_out():
    # the record classes are built without dataclasses, whose class building cost each process ~20 ms
    code = "import sys, normdescent.cli; print('dataclasses' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"

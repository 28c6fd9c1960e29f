import ast
import importlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import normdescent
from normdescent.norms import NormKind

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


def test_only_the_process_entry_touches_the_collector():
    # cli.entry freezes the import-time heap of a CLI process; main() and the
    # library leave the collector to whoever imported them
    entry = None
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.name == "cli.py":
            [entry] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "entry"]
        inside = {id(n) for n in ast.walk(entry)} if path.name == "cli.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "gc" and id(node) not in inside:
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
                if path.name != "cli.py" or node not in tree.body or any(a.asname for a in node.names):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    calls = [ast.unparse(n.func) for n in ast.walk(entry) if isinstance(n, ast.Call)]
    assert calls[:2] == ["gc.freeze", "sys.exit"]


# the layers whose __all__ perfbench/layertrace.py wraps, one getattr per name
LAYERS = ("matrices", "norms", "analysis", "problems", "optimizers", "experiments")


def test_every_public_name_of_a_layer_resolves():
    for layer in LAYERS:
        mod = importlib.import_module(f"normdescent.{layer}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], layer


def test_the_package_exports_only_public_names_of_the_layers():
    public = {name for layer in LAYERS for name in importlib.import_module(f"normdescent.{layer}").__all__}
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert exported and [name for name in exported if name not in public] == []


def test_only_norms_dispatches_on_a_norm_kind():
    # each norm kind owns its geometry as methods, which the runners and the grid call;
    # only the (Euclidean, Max) guard of steepest_descent_stack names a kind
    kinds = {cls.__name__ for cls in typing.get_args(NormKind)}
    found = []
    for name in ("optimizers.py", "experiments.py"):
        tree = ast.parse((PACKAGE / name).read_text(), name)
        for top in tree.body:
            for node in ast.walk(top):
                if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"):
                    continue
                classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(ast.unparse(c).rsplit(".", 1)[-1] in kinds for c in classes):
                    found.append((name, getattr(top, "name", None)))
    assert found == [("optimizers.py", "steepest_descent_stack")]


def test_only_main_maps_failures_to_exit_codes():
    # the commands compute and raise; cli.main alone silences numpy's warnings
    # and prints the error line, except _write_lines's for an unwritable output
    tree = ast.parse((PACKAGE / "cli.py").read_text(), "cli.py")
    errstate, error_lines = set(), set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.errstate":
                errstate.add(getattr(top, "name", None))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "print" and node.args:
                if ast.unparse(node.args[0]).lstrip("f").strip("'\"").startswith("error:"):
                    error_lines.add(getattr(top, "name", None))
    assert errstate == {"main"}
    assert error_lines == {"main", "_write_lines"}

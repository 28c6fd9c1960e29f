import ast
import importlib
import os
import subprocess
import sys
import typing
from itertools import chain
from pathlib import Path

import pytest

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


def _child_prints(code: str) -> str:
    """What a fresh interpreter running ``code`` prints, stripped."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_cli_import_leaves_dataclasses_out():
    # the record classes are built without dataclasses, whose class building cost each process ~20 ms
    assert _child_prints("import sys, normdescent.cli; print('dataclasses' in sys.modules)") == "False"


def test_cli_import_leaves_json_out():
    # only run and quadgrid read a JSON config: _load_json imports json itself
    code = "import sys; before = 'json' in sys.modules; import normdescent.cli; print(before or 'json' not in sys.modules)"
    assert _child_prints(code) == "True"


def test_only_the_process_entry_touches_the_collector():
    # run as a program, cli imports with the collector off, and entry freezes
    # the import-time heap and turns the collector back on; main() and the
    # library leave the collector to whoever imported them
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        inside = set()
        if path.name == "cli.py":
            [entry] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "entry"]
            [gate] = [n for n in tree.body if ast.unparse(n) == "if __name__ == '__main__':\n    gc.disable()"]
            inside = {id(n) for n in chain(ast.walk(entry), ast.walk(gate))}
            imports = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
            early = [n.lineno for n in imports if n.lineno < gate.lineno and ast.unparse(n) not in
                    ("from __future__ import annotations", "import gc")]
            assert early == [], "an import before the collector is turned off"
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
    assert calls[:3] == ["gc.freeze", "gc.enable", "sys.exit"]


# the layers whose __all__ perfbench/layertrace.py wraps, one getattr per name
LAYERS = ("matrices", "norms", "analysis", "problems", "optimizers", "experiments")


def test_every_public_name_of_a_layer_resolves():
    for layer in LAYERS:
        mod = importlib.import_module(f"normdescent.{layer}")
        assert [name for name in mod.__all__ if not hasattr(mod, name)] == [], layer


def test_the_package_exports_only_public_names_of_the_layers():
    mods = [importlib.import_module(f"normdescent.{layer}") for layer in LAYERS]
    public = [name for mod in mods for name in mod.__all__]
    assert normdescent.__all__ == public
    assert len(set(public)) == len(public)  # no name sits in two layers
    for mod in mods:
        assert [name for name in mod.__all__ if getattr(normdescent, name) is not getattr(mod, name)] == []
    # a layer is an attribute of the package even before anything has imported it
    assert _child_prints("import normdescent; print(normdescent.problems.__name__)") == "normdescent.problems"


def test_star_import_binds_all_and_an_unknown_name_raises():
    namespace = {}
    exec("from normdescent import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(normdescent.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        normdescent.no_such_name


def test_package_import_loads_no_numpy():
    # cli pins the BLAS threads before numpy loads, which needs a package __init__ that imports no layer
    assert _child_prints("import sys, normdescent; print('numpy' in sys.modules)") == "False"


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


def test_only_cli_reads_json_configs():
    # cli is the one reader of the config format; the library modules take Python values
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] + [a.name for a in node.names]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name] if node.name == "read_fields" or node.name.endswith("_from_json") else []
            else:
                continue
            if any(n.split(".")[0] == "json" or n == "read_fields" or n.endswith("_from_json") for n in names if n):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_cli_writes():
    # the library computes and returns values; cli alone prints, opens files and makes directories
    writers = {"open", "print", "write_text", "mkdir"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] in writers:
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Attribute) and ast.unparse(node) in ("sys.stdout", "sys.stderr"):
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "sys":
                if {a.name for a in node.names} & {"stdout", "stderr"}:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []

import ast
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

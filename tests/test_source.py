"""Source-level rules for the package."""

import ast
import pathlib

import invobs

PACKAGE = pathlib.Path(invobs.__file__).parent


def test_package_has_no_assert_statements():
    """Checks in the package raise or fail a property: ``python -O`` strips
    assert statements, and a failing one is a traceback, not an exit code."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"

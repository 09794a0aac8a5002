"""Source-level rules for the package."""

import ast
import pathlib
import re

import invobs

PACKAGE = pathlib.Path(invobs.__file__).parent
README = pathlib.Path(__file__).parent.parent / "README.md"


def test_package_has_no_assert_statements():
    """Checks in the package raise or fail a property: ``python -O`` strips
    assert statements, and a failing one is a traceback, not an exit code."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_package_json_dumps_are_strict():
    """Every json.dump and json.dumps call in the package passes
    ``allow_nan=False``: a NaN or Infinity token would make the artifact
    invalid JSON, so a non-finite value must be mapped before it is written."""
    def strict(call):
        return any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                   and kw.value.value is False for kw in call.keywords)

    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dump", "dumps")
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
             and not strict(node)]
    assert not found, f"json.dump calls without allow_nan=False: {found}"


def test_top_level_exports_are_the_documented_public_api():
    """The names ``invobs/__init__.py`` binds, apart from ``__version__``,
    are exactly those the README's "Public API" bullets list."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    bound |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets} - {"__version__"}
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = [line.split(":", 1)[1] for line in section.splitlines() if line.startswith("- ")]
    documented = {name for line in bullets for name in re.findall(r"`(\w+)`", line)}
    assert bound == documented


def _names(node):
    """The names a definition or statement uses."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _uses(node):
    """The names and attribute names a definition or statement uses."""
    return _names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _unreached(defs, roots):
    """The keys of ``defs``, (module, name) pairs mapped to the names each
    definition uses, that no chain of uses reaches from ``roots``."""
    by_name = {}
    for key in defs:
        by_name.setdefault(key[1], []).append(key)
    reached, todo = set(), [key for name in roots for key in by_name.get(name, ())]
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(k for name in defs[key] for k in by_name.get(name, ()))
    return sorted(f"{module}.{name}" for module, name in defs.keys() - reached)


def _top_level_defs(path, uses):
    """The module's syntax tree, and its top-level functions and classes as
    (module, name) keys mapped to ``uses`` of each."""
    tree = ast.parse(path.read_text(), str(path))
    return tree, {(path.stem, node.name): uses(node) for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_verify_holds_only_what_its_suite_runs():
    """Every top-level function and class of ``invobs/verify.py`` is reached
    from ``run_verification`` through the names the module's definitions use:
    a residual that no suite runs belongs in a test, not in the package."""
    _, defs = _top_level_defs(PACKAGE / "verify.py", _names)
    assert _unreached(defs, {"run_verification"}) == []


def test_package_holds_only_what_its_entry_points_reach():
    """Every top-level function and class of the package is reached, through
    the names and attribute names its definitions use, from the names
    ``invobs/__init__.py`` binds, from the CLI's ``main`` and the runner's
    ``run``, or from a module-level statement (a table, a constant, an
    alias): a function only the tests call belongs in a test helper."""
    defs, roots = {}, {"main", "run"}
    for path in sorted(PACKAGE.glob("*.py")):
        tree, found = _top_level_defs(path, _uses)
        defs.update(found)
        for node in tree.body:
            if path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                roots |= {alias.asname or alias.name for alias in node.names}
            elif not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)):
                roots |= _uses(node)
    assert _unreached(defs, roots) == []

"""Every name a module imports is used in that module, no module
imports a private name from another module of the package, and every
private module-level name is read by its module.

The package's `__init__.py` is left out of the first check: it imports
names only to re-export them.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "beliefplan"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(os, d)\n") == ["b (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str) -> list:
    """Names starting with an underscore that a relative import (from
    .module or from .) binds."""
    return sorted(
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    )


def test_detects_a_private_import():
    source = "from .dynamics import _mv, predict\nfrom . import _x as y\nfrom numpy import _z\n"
    assert private_imports(source) == ["_mv (line 1)", "_x (line 2)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def orphaned_private_names(source: str) -> list:
    """Module-level functions, classes and constants named with one
    leading underscore (not dunders) that no other statement of the
    module reads: a function that only calls itself is orphaned too."""
    tree = ast.parse(source)
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = stmt
    reads = [
        {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for stmt in tree.body
    ]
    return sorted(
        f"{name} (line {stmt.lineno})"
        for name, stmt in defined.items()
        if not any(name in r for other, r in zip(tree.body, reads) if other is not stmt)
    )


def test_detects_an_orphaned_private_name():
    source = (
        "_USED = 1\n_UNUSED = 2\n__dunder__ = 3\n"
        "def _rec(n):\n    return _rec(n - 1) if n else _USED\n"
        "class _Orphan:\n    pass\n"
        "def public():\n    return _helper()\n"
        "def _helper():\n    return 0\n"
    )
    assert orphaned_private_names(source) == ["_Orphan (line 6)", "_UNUSED (line 2)", "_rec (line 4)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_orphaned_private_names(path):
    assert orphaned_private_names(path.read_text()) == []

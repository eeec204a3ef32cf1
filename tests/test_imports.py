"""Every name a module imports is used in that module, no module
imports a private name from another module of the package, every
private module-level name is read by its module, every upper-case
public constant is read somewhere in src/, tests/ or bench/, every
function the benchmark hooks exists under the name it hooks, a hooked
name a module imports is called by that bare name there, and every
package attribute the benchmark reads exists.

The package's `__init__.py` is left out of the first check: it imports
names only to re-export them.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "beliefplan"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


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


def names_read(source: str) -> set:
    """Names an expression of the source reads: loaded names and the
    attribute names of attribute accesses."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def orphaned_public_constants(source: str, read: set) -> list:
    """Upper-case names without a leading underscore that the source
    assigns at module level and that are not in `read`."""
    defined = {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for t in targets:
                if isinstance(t, ast.Name) and t.id.isupper() and not t.id.startswith("_"):
                    defined[t.id] = stmt.lineno
    return sorted(f"{name} (line {line})" for name, line in defined.items() if name not in read)


def test_detects_an_orphaned_public_constant():
    source = "USED = 1\nUNUSED = 2\n_PRIVATE = 3\nlower = 4\nATTR: int = 5\n"
    read = names_read("print(USED, module.ATTR)\nUNUSED = USED\n")
    assert orphaned_public_constants(source, read) == ["UNUSED (line 2)"]


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(names_read(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_orphaned_public_constants(path, read_anywhere):
    assert orphaned_public_constants(path.read_text(), read_anywhere) == []


def hook_targets(source: str) -> list:
    """The beliefplan.<module>.<attr> strings of the module-level
    PLAN_HOOKS and EXPECTED_HOOKS assignments, read without importing
    the source, in first-appearance order."""
    targets = []
    for stmt in ast.parse(source).body:
        names = [t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)]
        if not {"PLAN_HOOKS", "EXPECTED_HOOKS"} & set(names):
            continue
        for node in ast.walk(stmt.value):
            if isinstance(node, ast.Constant) and str(node.value).startswith("beliefplan."):
                if node.value not in targets:
                    targets.append(node.value)
    return targets


def test_detects_hook_targets():
    source = (
        'PLAN_HOOKS = ("beliefplan.a.f",)\n'
        'EXPECTED_HOOKS = {"w": PLAN_HOOKS + ("beliefplan.b.g", "beliefplan.a.f", "x.y")}\n'
        'OTHER = ("beliefplan.c.h",)\n'
    )
    assert hook_targets(source) == ["beliefplan.a.f", "beliefplan.b.g"]


@pytest.mark.parametrize("target", hook_targets((ROOT / "bench" / "run.py").read_text()))
def test_bench_hooks_exist(target):
    """bench/run.py replaces each hooked function in the namespace of
    the module that calls it; a renamed function would leave its span
    empty."""
    module, _, attr = target.rpartition(".")
    assert callable(getattr(importlib.import_module(module), attr, None)), target


def uncalled_imports(source: str, names) -> list:
    """The names among `names` that an import statement of the source
    binds and that no call by bare name reads: a call through another
    name, such as a module attribute, bypasses a hook on the import."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    called = {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    return sorted(name for name in names if name in imported and name not in called)


def test_detects_an_uncalled_import():
    source = (
        "from .formula import monitor, monitor_word\nfrom . import formula\n"
        "from .dynamics import propagate_mlo\n"
        "def f(x):\n    step = propagate_mlo\n    return formula.monitor(x), monitor_word(x), step(x)\n"
    )
    names = ["monitor", "monitor_word", "propagate_mlo", "solve"]
    assert uncalled_imports(source, names) == ["monitor", "propagate_mlo"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_hooked_imports_are_called_by_name(path):
    """bench/run.py hooks a function a module imports by replacing the
    module's own binding, so the hook sees only the calls made by that
    bare name."""
    prefix = f"beliefplan.{path.stem}."
    hooked = [t[len(prefix):] for t in hook_targets((ROOT / "bench" / "run.py").read_text())
              if t.startswith(prefix)]
    assert uncalled_imports(path.read_text(), hooked) == []


def beliefplan_reads(source: str) -> list:
    """The beliefplan.<module>.<attr> names a source reads directly:
    each name of `from beliefplan.<module> import ...`, and each
    attribute read off a module bound by `from beliefplan import
    <module>`, in sorted order."""
    tree = ast.parse(source)
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "beliefplan":
            modules.update({a.asname or a.name: f"beliefplan.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("beliefplan."):
            reads.update(f"{node.module}.{a.name}" for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(reads)


def test_detects_beliefplan_reads():
    source = (
        "from beliefplan import cli, formula as fm\n"
        "from beliefplan.gaussian import make_belief\n"
        "import other\n"
        "def f(p):\n    from beliefplan import tracking\n"
        "    return fm.horizon(p.formula), cli.run, tracking.simulate, other.x, p.cli\n"
    )
    assert beliefplan_reads(source) == [
        "beliefplan.cli.run", "beliefplan.formula.horizon",
        "beliefplan.gaussian.make_belief", "beliefplan.tracking.simulate",
    ]


@pytest.mark.parametrize(
    "target",
    sorted(set().union(*(beliefplan_reads(p.read_text()) for p in (ROOT / "bench").glob("*.py")))),
)
def test_bench_reads_exist(target):
    """Every package attribute the benchmark reads directly exists: a
    stale name would fail every benchmark run at import or at its first
    operation."""
    module, _, attr = target.rpartition(".")
    assert hasattr(importlib.import_module(module), attr), target

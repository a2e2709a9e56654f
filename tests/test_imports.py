"""Every name a ``chernlab`` module imports is used in that module, every
private module-level function or class and every module-level UPPER_CASE
constant is read somewhere in ``src``, and every defaulted parameter of a
function in ``src`` is passed by some call in ``src``, ``tests`` or
``perfbench`` (an option that only ever takes one value is a constant).

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must appear as a name somewhere else in the module
(or in its ``__all__``), unless its line carries ``# noqa: F401``; a private
definition or a constant must appear as a name or an attribute outside its
own statement (an import alone does not read it).
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "chernlab"


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                exempt = any("# noqa: F401" in lines[n - 1] for n in (node.lineno, alias.lineno))
                if not exempt:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_reported(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import itertools\n"
        "import numpy as np\n"
        "from .errors import A, B\n"
        "from . import c  # noqa: F401\n"
        "__all__ = ['B']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(module) == ["A (line 4)", "itertools (line 2)"]


def _unread(paths, defined) -> list[str]:
    """``module.name`` for each name of ``defined(stmt)``, over the
    module-level statements of ``paths``, that no other module-level
    statement reads as a name or an attribute."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    reads = [
        (stmt, {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
         | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})
        for tree in trees.values()
        for stmt in tree.body
    ]
    return sorted(
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for stmt in tree.body
        for name in defined(stmt)
        if not any(name in names for other, names in reads if other is not stmt)
    )


def unread_private_definitions(paths) -> list[str]:
    def private(stmt):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if stmt.name.startswith("_") and not stmt.name.endswith("__"):
                yield stmt.name

    return _unread(paths, private)


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def unread_constants(paths) -> list[str]:
    def constants(stmt):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and CONSTANT.fullmatch(n.id):
                    yield n.id

    return _unread(paths, constants)


def test_every_private_definition_is_read():
    assert unread_private_definitions(sorted(SRC.glob("*.py"))) == []


def test_an_unread_private_definition_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n"
        "    return 1\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "class _Imported:\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    return None\n"
    )
    (tmp_path / "b.py").write_text("from .a import _Imported, _used\nclass _Read:\n    pass\nx = _used(), _Read\n")
    assert unread_private_definitions(sorted(tmp_path.glob("*.py"))) == ["a._Imported", "a._recursive"]


def test_every_constant_is_read():
    assert unread_constants(sorted(SRC.glob("*.py"))) == []


def test_an_unread_constant_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "TOL = 1e-6\n"
        "LIMIT: int = 3\n"
        "_TABLE = {1: 2}\n"
        "LOW, HIGH = 0, 1\n"
        "SHIFT = 2\n"
        "lower_case = Mixed = 4\n"
        "def f(x):\n"
        "    return LOW < x < TOL\n"
    )
    (tmp_path / "b.py").write_text("from .a import _TABLE, LIMIT\nfrom . import a\nclass C:\n    N = a.SHIFT\n")
    assert unread_constants(sorted(tmp_path.glob("*.py"))) == ["a.HIGH", "a.LIMIT", "a._TABLE"]


ROOT = SRC.parents[1]
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _calls(paths) -> dict[str, list[tuple[float, set[str] | None]]]:
    """For every called name (a plain name or the last attribute), the
    number of positional arguments of each call (infinite past a ``*``
    argument) and its keyword names (``None`` past a ``**`` argument)."""
    calls: dict[str, list] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (float("inf") if starred else len(node.args), None if None in keywords else keywords)
            )
    return calls


def unpassed_defaults(defining, calling) -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter of a
    function in ``defining`` that no call in ``calling`` passes, by position
    or by name.  Calls match by the function's name (a class's for
    ``__init__``), and a method's positions start after ``self``."""
    calls = _calls(calling)
    out = []
    for path in defining:
        tree = ast.parse(path.read_text())
        methods = {
            id(fn): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = methods.get(id(fn))
            name = owner if fn.name == "__init__" else fn.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            skip = 1 if owner is not None and not static else 0
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
            defaulted += [(float("inf"), p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for index, param in defaulted:
                if not any(n > index or kw is None or param in kw for n, kw in calls.get(name, ())):
                    out.append(f"{path.stem}.{fn.name}({param})")
    return sorted(out)


def test_every_defaulted_parameter_is_passed():
    # the builders' parameters are the coordinates of the fixture families
    defining = [p for p in sorted(SRC.glob("*.py")) if p.stem != "builders"]
    calling = [p for root in CALLERS for p in sorted(root.rglob("*.py"))]
    assert unpassed_defaults(defining, calling) == []


def test_an_unpassed_default_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, tol=1e-8, *, res=4, mode=None):\n"
        "    return x\n"
        "def g(x, n=1, m=2):\n"
        "    return x\n"
        "def h(x, n=1):\n"
        "    return x\n"
        "class C:\n"
        "    def __init__(self, a, b=0):\n"
        "        self.a = a\n"
        "    def m(self, k=1, j=2):\n"
        "        return k\n"
        "    @staticmethod\n"
        "    def s(a, b=1):\n"
        "        return a\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import C, f, g, h\n"
        "f(1, res=3)\n"
        "g(1, 2)\n"
        "h(*[1, 2])\n"
        "C(1).m(1)\n"
        "C.s(1)\n"
        "h(**{})\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert unpassed_defaults(paths[:1], paths) == [
        "a.__init__(b)", "a.f(mode)", "a.f(tol)", "a.g(m)", "a.m(j)", "a.s(b)"
    ]


STACKS = ("slices", "time_partials", "spatial_partials")


def stack_reads(paths) -> list[str]:
    """``module:line .name`` for every read of a whole-stack attribute of a
    homotopy (``.slices``, ``.time_partials``, ``.spatial_partials``).  Each
    read forms the stack of every time node, which a homotopy never holds,
    so the package reads slices and jets one node at a time from the blocks;
    ``Homotopy``'s own properties form their stacks without these reads."""
    return sorted(
        f"{path.stem}:{node.lineno} .{node.attr}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in STACKS and isinstance(node.ctx, ast.Load)
    )


def test_the_package_forms_no_homotopy_stack():
    assert stack_reads(sorted(SRC.glob("*.py"))) == []


def test_a_stack_read_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(h, slices):\n"
        "    n = h.slices.shape[0]\n"
        "    h.time_partials\n"
        "    return slices, h.slice_shape, g(spatial_partials=None)\n"
    )
    assert stack_reads([tmp_path / "a.py"]) == ["a:2 .slices", "a:3 .time_partials"]


def test_the_cli_loads_neither_scipy_nor_numpy_polynomial():
    # each costs every process time and memory at start-up, and no module of src needs either
    code = (
        "import sys, chernlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))"
    )
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"

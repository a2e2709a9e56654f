"""Every name a ``chernlab`` module imports is used in that module, and
every private module-level function or class and every module-level
UPPER_CASE constant is read somewhere in ``src``.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must appear as a name somewhere else in the module
(or in its ``__all__``), unless its line carries ``# noqa: F401``; a private
definition or a constant must appear as a name or an attribute outside its
own statement (an import alone does not read it).
"""

import ast
import re
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

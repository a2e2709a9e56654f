"""Every name a ``chernlab`` module imports is used in that module, and
every private module-level function or class is read somewhere in ``src``.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must appear as a name somewhere else in the module
(or in its ``__all__``), unless its line carries ``# noqa: F401``; a private
definition must appear as a name or an attribute outside its own body (an
import alone does not read it).
"""

import ast
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


def unread_private_definitions(paths) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    reads = [
        (stmt, {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
         | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})
        for tree in trees.values()
        for stmt in tree.body
    ]
    unread = []
    for stem, tree in trees.items():
        for stmt in tree.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = stmt.name
            if name.startswith("_") and not name.endswith("__"):
                if not any(name in names for other, names in reads if other is not stmt):
                    unread.append(f"{stem}.{name}")
    return sorted(unread)


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

"""Count the code lines of ``src/chernlab``: the non-blank lines of its
modules that are neither comments nor docstrings.

A docstring is the string that opens a module, class or function body, found
by ``ast``; a comment line is one whose first non-blank character is ``#``.
Prints the count of every module and their total, the number tracked in
``ROADMAP.md``.

    python tools/code_lines.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chernlab"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    kept = (line.strip() for i, line in enumerate(text.splitlines(), 1) if i not in skip)
    return sum(1 for line in kept if line and not line.startswith("#"))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    counts = {p.name: code_lines(p) for p in sorted(src.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Print the raw and code line counts of each module of src/fnls, and totals.

A code line is neither blank, nor a comment alone, nor part of a
docstring (the string that opens a module, class or function body).
Run from the repository root:

    python tools/source_size.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fnls"


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one source file."""
    text = path.read_text()
    raw = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(raw, 1)
               if i not in docs and line.strip() and not line.strip().startswith("#"))
    return len(raw), code


def main() -> int:
    total_raw = total_code = 0
    print(f"{'module':<16}{'raw':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{path.name:<16}{raw:>7}{code:>7}")
    print(f"{'total':<16}{total_raw:>7}{total_code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

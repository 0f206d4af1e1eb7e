"""Print the raw and code line counts and the public-name count of each
module of src/fnls, and totals.

A code line is neither blank, nor a comment alone, nor part of a
docstring (the string that opens a module, class or function body).  A
module's public names are the entries of its literal ``__all__`` list;
the package's ``__init__`` concatenates those lists, so the total is the
length of ``fnls.__all__``.  Run from the repository root:

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


def public_names(tree: ast.Module) -> int:
    """Length of the module's literal __all__ list, 0 without one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return len(node.value.elts)
    return 0


def count(path: Path) -> tuple[int, int, int]:
    """(raw lines, code lines, public names) of one source file."""
    text = path.read_text()
    raw = text.splitlines()
    tree = ast.parse(text)
    docs = docstring_lines(tree)
    code = sum(1 for i, line in enumerate(raw, 1)
               if i not in docs and line.strip() and not line.strip().startswith("#"))
    return len(raw), code, public_names(tree)


def main() -> int:
    totals = [0, 0, 0]
    print(f"{'module':<16}{'raw':>7}{'code':>7}{'names':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<16}" + "".join(f"{c:>7}" for c in counts))
    print(f"{'total':<16}" + "".join(f"{t:>7}" for t in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the lines of each module of ``src/rydeit``: code, docstring,
comment and blank lines, and the raw total.

    python scripts/code_lines.py

A docstring line is one inside the docstring of a module, class or
function (found with ``ast``); a comment line holds only a comment; a code
line is any other non-blank line, so a line of code with a trailing
comment counts as code.
"""

from __future__ import annotations

import ast
import pathlib


def count(source: str) -> dict:
    """The code, docstring, comment, blank and raw line counts of ``source``."""
    lines = source.splitlines()
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    kinds = {"code": 0, "docstring": len(docs), "comment": 0, "blank": 0, "raw": len(lines)}
    for i, line in enumerate(lines, 1):
        if i in docs:
            continue
        text = line.strip()
        kinds["blank" if not text else "comment" if text.startswith("#") else "code"] += 1
    return kinds


def main() -> None:
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "rydeit"
    rows = [(path.name, count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", {k: sum(r[k] for _, r in rows) for k in rows[0][1]}))
    keys = list(rows[0][1])
    print(f"{'module':<16}" + "".join(f"{k:>11}" for k in keys))
    for name, r in rows:
        print(f"{name:<16}" + "".join(f"{r[k]:>11}" for k in keys))


if __name__ == "__main__":
    main()

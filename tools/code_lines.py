"""Print the code lines of each module of a source tree, and their total.

A code line is a non-blank line that is neither a comment nor part of a
docstring (the string that opens a module, class or function body).

    python3 tools/code_lines.py [ROOT]    # ROOT defaults to src/

It always exits 0: the count informs, it gates nothing.
"""

from __future__ import annotations

import ast
import pathlib
import sys


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and number not in docstrings
    )


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0] if argv else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of Python files: ``python tools/code_lines.py FILE...``.

A code line is a physical line that holds a token of a statement. Blank
lines, comment lines and the docstrings of modules, classes and functions
are left out; a line that continues a statement, such as a closing bracket,
counts. Prints each file's count and then the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of the Python file at ``path``."""
    source = path.read_bytes()
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in _NOT_CODE]
    lines = {n for t in tokens for n in range(t.start[0], t.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list) -> int:
    if not argv:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 1
    total = 0
    for name in argv:
        count = code_lines(Path(name))
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of each module under src/: lines that hold a token
of code, so docstrings, comments and blank lines are not counted.

Usage, from the root of a checkout: python tools/code_lines.py

A line counts when ``tokenize`` finds on it a token other than a comment,
a line break or an indent change, and ``ast`` does not place it inside a
docstring (the first statement of a module, class or function, where it
is a string).  Prints one line per module and the total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """Line numbers of every docstring in the module's syntax tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """Number of code lines of one module's source."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {n for tok in tokens if tok.type not in _LAYOUT
             for n in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    total = 0
    for path in sorted(Path("src").rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Count the code lines of Python files: the measure of a simplicity
change.

    python3 scripts/code_lines.py [FILES...]

With no files it counts src/frlstsvm/*.py. It prints each file's code
lines and then the total. A code line is a line that holds a token
other than a comment; blank lines, comment lines and the lines of
module, class and function docstrings do not count, and every line of
a statement that spans several lines does.
"""
from __future__ import annotations

import ast
import io
import os
import sys
import tokenize
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# tokens that hold no code: comments and the tokens of layout
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
             tokenize.ENCODING}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int],
                                                  tuple[int, int]]]:
    """((line, column), (end line, end column)) of every module, class
    and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in Python source text."""
    spans = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    library = (REPO_ROOT / "src" / "frlstsvm").glob("*.py")
    files = ((argv if argv is not None else sys.argv[1:])
             or sorted(os.path.relpath(p) for p in library))
    total = 0
    for name in files:
        count = code_lines(Path(name).read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

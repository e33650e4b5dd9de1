#!/usr/bin/env python3
"""Count code, docstring-or-comment and blank lines of the bitplan package.

A line is code if it holds a token other than a comment and lies outside
every module, class and function docstring. Every other line is a
docstring-or-comment line if it lies in a docstring or holds a comment,
and blank if neither. So the three counts add up to `wc -l`.

Usage: scripts/src_lines.py [PACKAGE_DIR]   (default: src/bitplan)
Prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.COMMENT}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that module, class and function docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """(code, docstring-or-comment, blank) line counts of one module."""
    doc = docstring_lines(source)
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in doc)
    total = len(source.splitlines())
    prose = len((doc | comment) - code)
    return len(code), prose, total - len(code) - prose


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "bitplan"
    rows = [(p.name, *count(p.read_text(encoding="utf-8"))) for p in sorted(root.glob("*.py"))]
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    print(f"{'module':<16}{'code':>7}{'doc':>7}{'blank':>7}")
    for name, code, prose, blank in rows:
        print(f"{name:<16}{code:>7}{prose:>7}{blank:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

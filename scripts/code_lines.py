#!/usr/bin/env python3
"""Count the code lines of a Python source tree, per module and in all.

A code line holds a token other than a comment, a newline or an indent:
blank lines, comment lines and the lines of module, class and function
docstrings do not count, and a statement over several lines counts each of
them.  Run from a checkout::

    python scripts/code_lines.py            # src/sqopt
    python scripts/code_lines.py perfbench

It prints one ``<count> <path>`` line per ``.py`` file under the directory,
sorted by path, and the total last.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", nargs="?", default="src/sqopt", type=Path)
    args = parser.parse_args(argv)
    files = sorted(args.directory.rglob("*.py"))
    if not files:
        parser.error(f"no .py files under {args.directory}")
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Count code lines: non-blank, non-comment, non-docstring.

``python tools/code_lines.py [PATH ...]`` prints one total per path (a
``.py`` file, or a directory walked for ``*.py``); with no arguments it
counts ``src/repro`` and ``src/repro/cli.py``, the two numbers size claims
in ISSUE.md / CHANGES.md / docs/benchmarking.md are stated in.

A line counts when :mod:`tokenize` finds a token on it that is not a
comment, a line break or indentation, and it is not inside a docstring
(the leading string statement of a module, class or function, located with
:mod:`ast`). A multi-line statement counts once per physical line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCSTRING_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCSTRING_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Code lines in one Python source file."""
    with tokenize.open(path) as fp:
        source = fp.read()
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def total(path: Path) -> int:
    """Code lines in ``path``: one file, or every ``*.py`` under a directory."""
    files = path.rglob("*.py") if path.is_dir() else [path]
    return sum(code_lines(file) for file in files)


def main(argv: list[str] | None = None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or [
        "src/repro",
        "src/repro/cli.py",
    ]
    for name in paths:
        path = Path(name)
        if not path.exists():
            print(f"no such path: {name}", file=sys.stderr)
            return 2
        print(f"{total(path):7d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

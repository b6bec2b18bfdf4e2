#!/usr/bin/env python3
"""List the ``src/repro`` functions that a set of commands never enters.

``python tools/traffic_audit.py COMMANDS.txt`` (or ``-`` for stdin) reads one
Python command per line — what would follow ``python`` on a shell line,
``#`` comments and blank lines skipped::

    -m repro all --scale 2048 --iterations 1
    examples/quickstart.py
    benchmarks/layered/run.py --workload cnn-ca --seed 7 --seconds 2 --trace 1
    -m pytest benchmarks --ignore=benchmarks/layered --benchmark-only -q

runs each in this process under :func:`sys.setprofile` (and
:func:`threading.setprofile`, for the copy engine's worker threads), and
prints every function defined under ``src/repro`` that none of them called,
with the physical line count of its body. That is the
"only unit tests enter it" list a deletion PR starts from; whether a miss
is dead code or kept on purpose (safety paths, documented API) is a
judgement the tool does not make — CONTRIBUTING.md records the kept ones.

A command's own exit status is reported but does not stop the audit; a
command that spawns subprocesses is only traced up to the spawn (give
``benchmarks/layered/run.py`` one ``--workload`` per line, not ``--all``).
The status line on stderr also carries the number of Python-level calls the
command made into ``src/repro`` (``[exit 0, 12 859 974 calls] python -m
repro serve ...``; one per function entry or generator resume, imports
included): the deterministic "function calls per pass" a hot-path PR
quotes. Compare first commands of fresh processes — a later command finds
the package already imported.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import shlex
import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROOT = REPO / "src" / "repro"


def defined_functions(root: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, body lines)`` for every
    ``def`` under ``root``; the first line is the first decorator's, which
    is what ``co_firstlineno`` reports."""
    found: dict[tuple[str, int], tuple[str, int]] = {}

    def walk(node: ast.AST, prefix: str, file: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                body = child.end_lineno - child.body[0].lineno + 1
                found[(file, first)] = (prefix + child.name, body)
                walk(child, f"{prefix}{child.name}.", file)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", file)
            else:
                walk(child, prefix, file)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text()), "", str(path))
    return found


def run_command(argv: list[str]) -> int:
    """Run ``python <argv>`` in this process; returns its exit status."""
    saved_argv, saved_path = sys.argv, list(sys.path)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if argv[0] == "-m":
                sys.argv = argv[1:]
                runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
            else:
                # As ``python script.py`` does: the script's directory first.
                sys.argv = argv
                sys.path.insert(0, str(Path(argv[0]).resolve().parent))
                runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        sys.argv, sys.path[:] = saved_argv, saved_path
    return 0


def audit(
    commands: list[list[str]], root: Path = ROOT
) -> list[tuple[str, int, str, int]]:
    """``(file, line, name, body lines)`` of each function never entered."""
    calls: dict = {}  # code object -> times entered

    def profiler(frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            calls[code] = calls.get(code, 0) + 1

    def calls_under_root() -> int:
        prefix = str(root) + os.sep
        # A snapshot: this very function is profiled and lands in ``calls``.
        return sum(
            n for code, n in tuple(calls.items())
            if code.co_filename.startswith(prefix)
        )

    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        for argv in commands:
            before = calls_under_root()
            status = run_command(argv)
            made = f"{calls_under_root() - before:,}".replace(",", " ")
            print(
                f"[exit {status}, {made} calls] python {shlex.join(argv)}",
                file=sys.stderr,
            )
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    entered = {(code.co_filename, code.co_firstlineno) for code in calls}
    return [
        (file, line, name, body)
        for (file, line), (name, body) in defined_functions(root).items()
        if (file, line) not in entered
    ]


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: traffic_audit.py COMMANDS.txt  (- for stdin)", file=sys.stderr)
        return 2
    source = sys.stdin if args[0] == "-" else open(args[0], encoding="utf-8")
    with source:
        commands = [shlex.split(line, comments=True) for line in source]
    commands = [command for command in commands if command]
    sys.path.insert(0, str(ROOT.parent))
    misses = audit(commands)
    for file, line, name, body in misses:
        print(f"{Path(file).relative_to(REPO)}:{line}  {name}  ({body} lines)")
    print(
        f"{len(misses)} functions, {sum(body for *_, body in misses)} body lines "
        f"never entered by {len(commands)} commands"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Docs audit: reachability, link integrity, and CLI-reference accuracy.

Three checks over the repo's markdown (``python tools/check_docs.py``,
wired into CI as the ``docs-check`` job):

1. **Reachability** — every ``docs/*.md`` page must be reachable from
   ``README.md`` by following references: markdown links plus inline-code
   path mentions like ```docs/architecture.md``` (the README's idiom),
   transitively through other reachable pages. An orphaned page is a page
   nobody can find.
2. **Link integrity** — every relative link or path mention in the scanned
   markdown must resolve to a real file (anchors stripped; http/mailto
   ignored).
3. **CLI accuracy** — every ``python -m repro <cmd> --flag ...`` invocation
   mentioned anywhere in the scanned markdown must name a row of
   ``repro.cli.COMMANDS`` and only flags that row takes, and the README's
   "CLI reference" table must have exactly one row per command, so the
   docs cannot drift from the CLI.

Exit status 0 when clean, 1 with one line per problem otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Markdown links: [text](target). Images share the syntax via a leading !.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Inline-code path mentions: `docs/foo.md`, `tools/check_docs.py`, ...
# (the README references its documentation pages this way).
_CODE_PATH = re.compile(r"`([A-Za-z0-9_./-]+\.(?:md|py|toml|json|yml))`")
# CLI invocations anywhere in prose or fenced blocks: the subcommand word and
# the rest of the command (through backslash-continued lines, up to whatever
# ends it in prose or shell: a backtick, pipe, comment, `;` or `&&`).
_CLI = re.compile(
    r"python\s+-m\s+repro\s+([A-Za-z0-9_-]+)((?:\\\n|[^\n`|#;&])*)"
)
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
# Flags and placeholders are not subcommands.
_NON_COMMANDS = {"-h", "--help"}
# The README's CLI reference: `| Command | ...` header, one `| `cmd` | ...` row
# per subcommand.
_TABLE_ROW = re.compile(r"^\| `([A-Za-z0-9_-]+)` \|", re.MULTILINE)

# Top-level pages scanned in addition to README.md and docs/*.md. Links in
# working notes (ISSUE.md, CHANGES.md, SNIPPETS.md, PAPERS.md) are not
# contract surface.
EXTRA_PAGES = (
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    "DESIGN.md",
    "ROADMAP.md",
)


def _commands(root: Path) -> dict[str, frozenset[str]]:
    """The CLI's real surface, ``{subcommand: its flags}`` (import the
    installed/src package)."""
    src = root / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.cli import COMMANDS

    return {
        name: frozenset(flag for flags, _ in command.options for flag in flags)
        for name, command in COMMANDS.items()
    }


def _scanned_pages(root: Path) -> list[Path]:
    pages = [root / "README.md"]
    pages.extend(sorted((root / "docs").glob("*.md")))
    for name in EXTRA_PAGES:
        page = root / name
        if page.exists():
            pages.append(page)
    return [p for p in pages if p.exists()]


def _references(page: Path, root: Path) -> set[Path]:
    """Every repo file this page points at (links + code-path mentions)."""
    text = page.read_text(encoding="utf-8")
    targets: set[str] = set()
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        targets.add(target.split("#", 1)[0])
    for match in _CODE_PATH.finditer(text):
        targets.add(match.group(1))
    resolved: set[Path] = set()
    for target in targets:
        if not target:
            continue
        # Links resolve relative to the page; bare repo paths (the
        # backtick idiom) resolve from the repo root.
        for base in (page.parent, root):
            candidate = (base / target).resolve()
            if candidate.exists():
                resolved.add(candidate)
                break
    return resolved


def check_links(page: Path, root: Path) -> list[str]:
    """Unresolvable relative markdown links in ``page``."""
    problems = []
    text = page.read_text(encoding="utf-8")
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part:
            continue
        line = text.count("\n", 0, match.start()) + 1
        if not (
            (page.parent / path_part).exists() or (root / path_part).exists()
        ):
            problems.append(
                f"{page.relative_to(root)}:{line}: broken link -> {target}"
            )
    return problems


def check_cli_mentions(
    page: Path, root: Path, commands: dict[str, frozenset[str]]
) -> list[str]:
    """``python -m repro <cmd> --flag`` mentions the CLI would reject, and a
    README command table that is not one row per subcommand."""
    problems = []
    text = page.read_text(encoding="utf-8")
    where = page.relative_to(root)
    for match in _CLI.finditer(text):
        command, rest = match.groups()
        if command in _NON_COMMANDS:
            continue
        line = text.count("\n", 0, match.start()) + 1
        if command not in commands:
            problems.append(
                f"{where}:{line}: no such subcommand 'python -m repro {command}'"
            )
            continue
        for flag in _FLAG.findall(rest):
            if flag not in commands[command] and flag not in _NON_COMMANDS:
                problems.append(
                    f"{where}:{line}: 'python -m repro {command}' takes no {flag}"
                )
    if page.name == "README.md" and "| Command |" in text:
        rows = _TABLE_ROW.findall(text)
        for name in sorted(set(commands) | set(rows)):
            if rows.count(name) != (name in commands):
                problems.append(
                    f"{where}: CLI reference table has {rows.count(name)} "
                    f"row(s) for '{name}', the CLI has {int(name in commands)}"
                )
    return problems


def check_reachability(root: Path) -> list[str]:
    """docs/*.md pages no chain of references from README.md reaches."""
    readme = root / "README.md"
    if not readme.exists():
        return ["README.md missing"]
    reached = {readme.resolve()}
    frontier = [readme]
    while frontier:
        page = frontier.pop()
        for target in _references(page, root):
            if target.suffix == ".md" and target not in reached:
                reached.add(target)
                if target.is_file():
                    frontier.append(target)
    problems = []
    for page in sorted((root / "docs").glob("*.md")):
        if page.resolve() not in reached:
            problems.append(
                f"{page.relative_to(root)}: not reachable from README.md"
            )
    return problems


def check_repo(root: Path) -> list[str]:
    """All three audits; one message per problem (empty = clean)."""
    root = root.resolve()
    commands = _commands(root)
    problems = check_reachability(root)
    for page in _scanned_pages(root):
        problems.extend(check_links(page, root))
        problems.extend(check_cli_mentions(page, root, commands))
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=Path(__file__).resolve().parent.parent,
        type=Path,
        help="repository root (default: this script's grandparent)",
    )
    args = parser.parse_args(argv)
    problems = check_repo(args.root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"docs-check: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    pages = len(_scanned_pages(args.root))
    print(f"docs-check: {pages} pages clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

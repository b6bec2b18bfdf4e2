"""Plain-text rendering helpers for experiment reports.

Every experiment renders to an aligned text table (and an ASCII bar chart
where the paper uses a bar figure), so ``python -m repro figN`` output can be
read side by side with the paper.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["table", "bars", "header"]


def header(title: str, subtitle: str = "") -> str:
    lines = ["=" * 72, title]
    if subtitle:
        lines.append(subtitle)
    lines.append("=" * 72)
    return "\n".join(lines)


def table(columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned text table: the first column left-aligned, the
    rest right-aligned."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in rendered)) if rendered else len(columns[i])
        for i in range(len(columns))
    ]

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if i == 0:
                parts.append(cell.ljust(widths[i]))
            else:
                parts.append(cell.rjust(widths[i]))
        return "  ".join(parts)

    lines = [fmt(list(columns)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rendered)
    return "\n".join(lines)


def bars(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 46,
    unit: str = "",
) -> str:
    """A horizontal ASCII bar chart (one bar per label)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    peak = max(values, default=0.0)
    label_width = max((len(label) for label in labels), default=0)
    lines = []
    for label, value in zip(labels, values):
        filled = int(round(width * value / peak)) if peak > 0 else 0
        lines.append(
            f"{label.ljust(label_width)} | {'#' * filled}{' ' * (width - filled)} "
            f"{value:,.1f}{unit}"
        )
    return "\n".join(lines)

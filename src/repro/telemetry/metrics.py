"""Trace-derived movement metrics and copy attribution.

Live counts stay where they are kept: each policy's ``stats``, the trace
events and the runtime monitor's totals. This module reads a *finished*
event trace: :func:`derive_metrics` rolls it into a flat mapping (copy
bytes by cause, hint-to-movement latency, eviction cascade depth) and
:func:`attribute_copies` groups copied bytes by root cause for the
profile report.

Keys follow the Prometheus convention (``trace.copy_bytes{cause=evict}``)
and are sorted, so dumps are diffable.
"""

from __future__ import annotations

from typing import Iterable

from repro.telemetry.trace import (
    COPY_START,
    EVICT_SCAN,
    TraceEvent,
)

__all__ = [
    "derive_metrics",
    "attribute_copies",
    "CauseBucket",
    "Attribution",
]


def derive_metrics(events: Iterable[TraceEvent]) -> dict[str, object]:
    """Roll an event trace up into a flat movement-metrics mapping.

    * ``trace.events{kind=...}`` — event counts by kind;
    * ``trace.copy_bytes{cause=...}`` / ``trace.copies{cause=...}`` —
      copied bytes and copies by *root* cause (the hint/decision that
      ultimately triggered the copy);
    * ``trace.hint_to_movement_seconds`` — virtual latency from the root
      scope opening to the copy starting (non-zero under async movement);
    * ``trace.eviction_cascade_depth`` — victims per ``evictfrom`` span.

    Keys are sorted; the two distributions are summary dicts
    (count/sum/min/max/mean), present only once observed.
    """
    counts: dict[str, int] = {}
    samples: dict[str, list] = {}

    def count(key: str, amount: int = 1) -> None:
        counts[key] = counts.get(key, 0) + amount

    for event in events:
        count(f"trace.events{{kind={event.kind}}}")
        if event.kind == COPY_START:
            cause = event.root or "unattributed"
            nbytes = int(event.args.get("nbytes", 0))
            count(f"trace.copy_bytes{{cause={cause}}}", nbytes)
            count(f"trace.copies{{cause={cause}}}")
            if event.root_ts is not None:
                samples.setdefault("trace.hint_to_movement_seconds", []).append(
                    event.ts - event.root_ts
                )
        elif event.kind == EVICT_SCAN:
            samples.setdefault("trace.eviction_cascade_depth", []).append(
                int(event.args.get("depth", 0))
            )
    out: dict[str, object] = dict(counts)
    for key, values in samples.items():
        total = 0.0
        for value in values:
            total += value
        out[key] = {
            "count": len(values),
            "sum": total,
            "min": min(values),
            "max": max(values),
            "mean": total / len(values),
        }
    return {key: out[key] for key in sorted(out)}


# -- copy attribution ----------------------------------------------------------


class CauseBucket:
    """Aggregated movement for one root cause."""

    __slots__ = ("cause", "copies", "nbytes")

    def __init__(self, cause: str) -> None:
        self.cause = cause
        self.copies = 0
        self.nbytes = 0


class Attribution:
    """Copied bytes grouped by root cause, for the profile report."""

    def __init__(self, buckets: list[CauseBucket]) -> None:
        self.buckets = sorted(
            buckets, key=lambda b: (-b.nbytes, -b.copies, b.cause)
        )

    @property
    def total_bytes(self) -> int:
        return sum(b.nbytes for b in self.buckets)

    @property
    def total_copies(self) -> int:
        return sum(b.copies for b in self.buckets)

    @property
    def attributed_bytes(self) -> int:
        return sum(b.nbytes for b in self.buckets if b.cause)

    @property
    def attributed_fraction(self) -> float:
        """Fraction of copied bytes carrying a root cause (1.0 if no copies)."""
        total = self.total_bytes
        if total == 0:
            return 1.0
        return self.attributed_bytes / total


def attribute_copies(events: Iterable[TraceEvent]) -> Attribution:
    """Group every copy's bytes by the root cause that triggered it."""
    buckets: dict[str, CauseBucket] = {}
    for event in events:
        if event.kind != COPY_START:
            continue
        bucket = buckets.get(event.root)
        if bucket is None:
            bucket = buckets[event.root] = CauseBucket(event.root)
        bucket.copies += 1
        bucket.nbytes += int(event.args.get("nbytes", 0))
    return Attribution(list(buckets.values()))

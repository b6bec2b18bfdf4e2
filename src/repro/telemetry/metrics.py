"""Metrics registry: named counters and histograms.

One :class:`MetricsRegistry` per session replaces the scattered
``policy_stats()`` dicts: policy counters are registry-backed (see
:class:`~repro.policies.optimizing.PolicyStats`), the manager records
eviction-cascade depths, and :func:`derive_metrics` rolls a finished event
trace into movement metrics — copy bytes by cause, hint-to-movement latency
— so reports and tests read one flat namespace.

Labels follow the Prometheus convention: ``counter("copy_bytes",
cause="evict")`` registers ``copy_bytes{cause=evict}``. Keys are
deterministic (labels sorted), so registry dumps are diffable.
"""

from __future__ import annotations

from typing import Iterable

from repro.telemetry.trace import (
    COPY_START,
    EVICT_SCAN,
    TraceEvent,
)

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "derive_metrics",
    "attribute_copies",
    "CauseBucket",
    "Attribution",
]


class Counter:
    """A cumulative count (monotonic in normal use)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """Streaming summary of an observed distribution (count/sum/min/max)."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }


class MetricsRegistry:
    """A flat namespace of typed metrics, keyed by name + sorted labels."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Histogram] = {}

    @staticmethod
    def key(name: str, labels: dict[str, str]) -> str:
        if not labels:
            return name
        if len(labels) == 1:  # the common case: nothing to sort or join
            ((label, value),) = labels.items()
            return f"{name}{{{label}={value}}}"
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{inner}}}"

    def _get(self, kind: type, name: str, labels: dict[str, str]):
        key = self.key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind()
            self._metrics[key] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {key!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, key: str) -> bool:
        return key in self._metrics

    def reset(self) -> None:
        """Zero every registered metric *in place*.

        Keys and metric object identity are preserved: policy stats hold
        references to their registry counters (:class:`PolicyStats.attach`
        deliberately carries pre-bind counts over), so dropping the dict
        would silently disconnect them. Resetting in place gives a run
        counters that start at zero without rewiring anything — the guard
        :func:`repro.experiments.common.run_trace_mode` applies between
        ablation modes so counts can never bleed from one run into the next.
        """
        for metric in self._metrics.values():
            metric.reset()

    def as_dict(self) -> dict[str, object]:
        """Flat, deterministic dump (histograms expand to summary dicts)."""
        out: dict[str, object] = {}
        for key in sorted(self._metrics):
            metric = self._metrics[key]
            if isinstance(metric, Histogram):
                out[key] = metric.as_dict()
            else:
                out[key] = metric.value
        return out


# -- trace-derived metrics -----------------------------------------------------


def derive_metrics(
    events: Iterable[TraceEvent],
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Roll an event trace up into movement metrics.

    * ``trace.events{kind=...}`` — event counts by kind;
    * ``trace.copy_bytes{cause=...}`` — copied bytes by *root* cause (the
      hint/decision that ultimately triggered the copy);
    * ``trace.hint_to_movement_seconds`` — virtual latency from the root
      scope opening to the copy starting (non-zero under async movement);
    * ``trace.eviction_cascade_depth`` — victims per ``evictfrom`` span.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for event in events:
        registry.counter("trace.events", kind=event.kind).inc()
        if event.kind == COPY_START:
            cause = event.root or "unattributed"
            nbytes = int(event.args.get("nbytes", 0))
            registry.counter("trace.copy_bytes", cause=cause).inc(nbytes)
            registry.counter("trace.copies", cause=cause).inc()
            if event.root_ts is not None:
                registry.histogram("trace.hint_to_movement_seconds").observe(
                    event.ts - event.root_ts
                )
        elif event.kind == EVICT_SCAN:
            registry.histogram("trace.eviction_cascade_depth").observe(
                int(event.args.get("depth", 0))
            )
    return registry


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

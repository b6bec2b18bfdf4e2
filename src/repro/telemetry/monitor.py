"""Always-on runtime monitor: bounded-memory observability (PR 6 tentpole).

Full tracing (:class:`~repro.telemetry.trace.Tracer`) records every event and
is priceless after the fact but too heavy to leave on; :data:`NULL_TRACER`
costs nothing and sees nothing. This module is the production-grade middle
tier the paper's online-guidance relatives (Olson et al., Jenga) assume: an
event *consumer* whose memory is bounded no matter how long the run is.

Four cooperating pieces, all fed one event at a time by
:class:`RuntimeMonitor`'s intakes:

* :class:`RollupAggregator` — folds events into fixed-interval virtual-time
  windows (bytes moved per cause, stall seconds, evictions/prefetches,
  per-device occupancy, per-tenant usage). O(max_windows) memory; windows
  that age out are folded into cumulative totals, never lost.
* :class:`QuantileSketch` — streaming p50/p95/p99 for kernel, stall, and
  copy latencies without storing samples. Log-bucketed (HDR-histogram
  style): geometric buckets of ratio ``(1+eps)**2`` guarantee every
  reported quantile is within ``eps`` relative error of a sample at that
  rank — accuracy-tested against exact ``numpy.percentile``.
* :class:`FlightRecorder` — a fixed-size ring of the most recent events,
  dumped to JSONL automatically when a fault fires, the watchdog strikes,
  or the recovery ladder escalates: the crashed run's "black box".
* :class:`AlertRule` / :class:`HealthSnapshot` — declarative per-window
  health checks (stall fraction, ping-pong rate, occupancy, quota
  pressure) with hysteresis, emitting ``alert`` events into the trace.

:class:`MonitorTracer` adapts the monitor to the runtime's tracer slot: it
*is* a :class:`Tracer` (same typed bodies, same scopes, same virtual-time
stamps — so cause attribution and determinism carry over). Its ``_event``
stamps the record, rings it, counts it in its window and folds it through
the kind's entry in ``_FOLDS``, the one fold table. Whether the record is
also retained is decided once, when the tracer is built: without
``keep_events`` it is handed to a ``deque(maxlen=0)``, so a monitored run
folds the same events, and leaves the same monitor, whether or not it keeps
them. The monitor is pure observation: it never advances the clock and
never feeds back into policy decisions, so results are bit-identical with
it on or off.

Everything here also works *offline*: :meth:`RuntimeMonitor.observe` is
the replay intake — it maps each recorded event's args onto its kind's
``SCHEMA`` row (tolerantly: a missing field reads as its replay default)
and calls the same fold, so feeding it a recorded JSONL trace produces the
same rollups/alerts the live run saw — and that is what ``python -m repro
monitor trace.jsonl`` does.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.telemetry.timeline import Timeline
from repro.telemetry.trace import (
    ALERT,
    ALLOC,
    COPY_END,
    COPY_RETRY,
    COPY_START,
    DETACH,
    EVICT,
    FAULT,
    FREE,
    GC,
    KERNEL_END,
    OOM_RETRY,
    POLICY_STRIKE,
    PREFETCH,
    QUARANTINE,
    RECOVERY,
    RECOVERY_STEP,
    RESIZE,
    RESTORE,
    SNAPSHOT,
    STALL,
    NULL_TRACER,
    REPLAY_DEFAULTS,
    SCHEMA,
    EventView,
    NullTracer,
    TraceEvent,
    Tracer,
    _as_event,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.clock import SimClock

__all__ = [
    "QuantileSketch",
    "RollupWindow",
    "RollupAggregator",
    "FlightRecorder",
    "AlertRule",
    "AlertState",
    "DEFAULT_ALERT_RULES",
    "HealthSnapshot",
    "MonitorConfig",
    "RuntimeMonitor",
    "MonitorTracer",
    "pick_tracer",
    "FLIGHT_SCHEMA_VERSION",
]

FLIGHT_SCHEMA_VERSION = 1

# Ladder rungs considered an *escalation*: reaching them means the cheap
# collect/evict rungs were not enough, which is flight-dump-worthy context.
_ESCALATION_STEPS = frozenset({"defrag", "fallback", "exhausted"})


# -- streaming quantile sketch -------------------------------------------------


class QuantileSketch:
    """Streaming quantiles over positive samples in bounded memory.

    Values are hashed into geometric buckets ``[g**i, g**(i+1))`` with
    ``g = (1 + relative_error)**2``; a quantile query walks the (sparse)
    buckets in index order to the target rank and reports the bucket's
    geometric midpoint, clamped to the observed ``[min, max]``. The midpoint
    of a ratio-``g`` bucket is within ``sqrt(g) - 1 == relative_error`` of
    every sample in it, which bounds the reported quantile's relative error
    against the true order statistic at that rank.

    Chosen over the P² estimator because P²'s parabolic interpolation is
    badly wrong on bimodal inputs; bucket counting has no distributional
    assumptions. Non-positive samples (latencies are never negative, but
    zero-duration events exist) are counted exactly in a dedicated bucket.
    Memory is O(distinct buckets): spanning 1ns..1e6s at the default 0.5%
    error needs at most ~3500 entries, in practice far fewer.
    """

    __slots__ = (
        "relative_error", "_log_growth", "_half_log_growth",
        "count", "total", "minimum", "maximum", "_nonpos", "_buckets",
    )

    def __init__(self, relative_error: float = 0.005) -> None:
        if not 0.0 < relative_error < 0.5:
            raise ValueError(
                f"relative_error must be in (0, 0.5), got {relative_error}"
            )
        self.relative_error = relative_error
        growth = (1.0 + relative_error) ** 2
        self._log_growth = math.log(growth)
        self._half_log_growth = 0.5 * self._log_growth
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._nonpos = 0  # samples <= 0, kept out of the log buckets
        self._buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value <= 0.0:
            self._nonpos += 1
            return
        index = math.floor(math.log(value) / self._log_growth)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (q in [0, 1]) of everything observed so far.

        Rank convention matches ``numpy.percentile``'s default: the target
        rank is ``q * (count - 1)``; the sample holding that (floored) rank
        is located and its bucket midpoint returned. Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if self.minimum == self.maximum:
            return self.minimum  # constant stream: exact
        rank = math.floor(q * (self.count - 1))
        if rank < self._nonpos:
            # All non-positive samples sort first; report the worst (closest
            # to zero) bound we know, which for latencies is simply min.
            return min(self.minimum, 0.0)
        seen = self._nonpos
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank < seen:
                midpoint = math.exp(
                    index * self._log_growth + self._half_log_growth
                )
                return min(max(midpoint, self.minimum), self.maximum)
        return self.maximum  # unreachable unless counts drifted

    def summary(self) -> dict[str, float]:
        """count/sum/min/max/mean plus the p50/p95/p99 the dashboard shows."""
        if self.count == 0:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


# -- windowed rollups ----------------------------------------------------------


def cause_kind(root: str) -> str:
    """Bucket a root-cause label to its *kind*, bounding cardinality.

    Scope labels embed object names (``hint:will_write:a7``,
    ``evict:conv3.w``); per-object keys would grow without bound on a long
    run, so rollups key on the label's kind prefix: ``hint:will_write``,
    ``evict``, ``place``, ... Empty roots roll up as ``unattributed``.
    """
    if not root:
        return "unattributed"
    first, sep, rest = root.partition(":")
    if first == "hint" and sep:
        return "hint:" + rest.partition(":")[0]
    return first


# The rollup counter schema, written once: (name, zero) in report order. An
# int zero is a count or byte total, a float zero a seconds sum (reported as
# ``0.0`` when nothing landed), a dict a per-cause breakdown, and ``None`` a
# value derived from the others (reported, never stored). Drives
# RollupWindow's slots, constructor and ``to_json``, and the aggregator's
# fold; the hot-path ``window.x += ...`` sites name their counter directly.
_ROLLUP_SCHEMA: tuple[tuple[str, Any], ...] = (
    ("events", 0),
    ("copies", 0), ("copy_bytes", 0), ("copy_bytes_by_cause", {}),
    ("copy_seconds", 0.0), ("copy_seconds_by_cause", {}), ("copies_by_cause", {}),
    ("stalls", 0), ("stall_seconds", 0.0), ("stall_fraction", None),
    ("evictions", 0), ("prefetches", 0), ("ping_pong_rate", None),
    ("allocs", 0), ("alloc_bytes", 0), ("frees", 0), ("free_bytes", 0),
    ("kernels", 0), ("kernel_seconds", 0.0), ("kernel_compute_seconds", 0.0),
    ("kernel_memory_seconds", 0.0), ("kernel_fixed_seconds", 0.0),
    ("gcs", 0), ("gc_seconds", 0.0), ("oom_retries", 0),
    ("faults", 0), ("recovery_steps", 0), ("recoveries", 0), ("copy_retries", 0),
    ("strikes", 0), ("quarantines", 0),
)
_ROLLUP_COUNTERS = tuple(
    (name, zero) for name, zero in _ROLLUP_SCHEMA if zero is not None
)


class RollupWindow:
    """Aggregated activity for one fixed virtual-time interval."""

    __slots__ = (
        "index", "start", "duration",
        *(name for name, _ in _ROLLUP_COUNTERS),
        "occupancy", "inflight_copy_bytes", "tenant_used",
    )

    def __init__(self, index: int, duration: float) -> None:
        self.index = index
        self.start = index * duration
        self.duration = duration
        for name, zero in _ROLLUP_COUNTERS:
            setattr(self, name, {} if isinstance(zero, dict) else zero)
        # Filled at window close from the monitor's live state.
        self.occupancy: dict[str, int] = {}
        self.inflight_copy_bytes = 0
        self.tenant_used: dict[str, int] = {}

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def stall_fraction(self) -> float:
        return self.stall_seconds / self.duration if self.duration else 0.0

    @property
    def ping_pong_rate(self) -> float:
        """Evict/prefetch *churn* per second: min(evictions, prefetches)/dt.

        A window that only evicts (pressure) or only prefetches (warm-up) is
        healthy; paired evict+refetch in the same window is thrash.
        """
        if not self.duration:
            return 0.0
        return min(self.evictions, self.prefetches) / self.duration

    def to_json(self) -> dict[str, Any]:
        doc = {"index": self.index, "start": self.start, "duration": self.duration}
        for name, zero in _ROLLUP_SCHEMA:
            value = getattr(self, name)
            if isinstance(zero, dict):
                value = dict(sorted(value.items()))
            doc[name] = value
        doc["occupancy"] = dict(sorted(self.occupancy.items()))
        doc["inflight_copy_bytes"] = self.inflight_copy_bytes
        doc["tenant_used"] = dict(sorted(self.tenant_used.items()))
        return doc


class RollupAggregator:
    """Fixed-interval windows over virtual time, O(max_windows) memory.

    Windows *close* when an event lands in a later interval; the close
    callback (alert evaluation, occupancy snapshotting) fires once per
    window in index order. Async completions (``emit_at``) can arrive with
    an earlier timestamp than the event that closed their window — such
    late events still fold into the retained window (counts stay exact) or,
    past the retention horizon, into the folded totals; only the per-window
    *alert view* is best-effort at close time. Retention is bounded:
    windows older than ``max_windows`` fold into a cumulative
    :class:`RollupWindow` (index -1) and are dropped.
    """

    def __init__(
        self,
        window_seconds: float,
        max_windows: int,
        on_close: Callable[[RollupWindow], None] | None = None,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be > 0, got {window_seconds}")
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        self.window_seconds = window_seconds
        self.max_windows = max_windows
        self.on_close = on_close
        self.windows: dict[int, RollupWindow] = {}  # insertion == index order
        self.folded = RollupWindow(-1, window_seconds)
        self.windows_closed = 0
        self._highest = -1
        # One-entry cache for the common case (consecutive events landing in
        # the same window). The bounds are plain floats so window_for tests
        # membership with two comparisons — no division, no dict probe.
        # Invalidated whenever the cached window could be folded away or
        # has been closed by finish().
        self._cache_lo = math.inf
        self._cache_hi = -math.inf
        self._cache_window: RollupWindow | None = None

    def window_for(self, ts: float) -> RollupWindow:
        """The window containing ``ts``, closing any interval it skips past."""
        if self._cache_lo <= ts < self._cache_hi:
            return self._cache_window  # type: ignore[return-value]
        index = int(ts / self.window_seconds)
        window = self.windows.get(index)
        if window is None:
            if index > self._highest:
                if self._highest >= 0:
                    self._close_through(index - 1)
                self._highest = index
            window = self.windows[index] = RollupWindow(
                index, self.window_seconds
            )
            self._evict_old()
        self._cache_lo = window.start
        self._cache_hi = window.start + window.duration
        self._cache_window = window
        return window

    def _invalidate_cache(self) -> None:
        self._cache_lo = math.inf
        self._cache_hi = -math.inf
        self._cache_window = None

    def _close_through(self, last: int) -> None:
        # Close every retained window up to `last`, materialising empty gap
        # windows so hysteresis counts idle intervals too. A jump larger
        # than the retention span skips the unobservable middle — without
        # walking it, so one event after an idle gap costs O(max_windows)
        # however many windows the gap spans.
        first = max(self._highest, last - self.max_windows + 1)
        indices: Iterable[int] = range(first, last + 1)
        if first > self._highest and self._highest in self.windows:
            # Nothing above `_highest` was ever opened, so it is the only
            # retained window the skipped stretch can hold.
            indices = (self._highest, *indices)
        for index in indices:
            window = self.windows.get(index)
            if window is None:
                window = self.windows[index] = RollupWindow(
                    index, self.window_seconds
                )
            self.windows_closed += 1
            if self.on_close is not None:
                self.on_close(window)
        self._evict_old()

    def finish(self) -> None:
        """Close the trailing window (end of run / final snapshot)."""
        if self._highest >= 0 and self._highest in self.windows:
            self._close_through(self._highest)
            self._highest += 1  # re-observing the same ts opens a fresh view
            self._invalidate_cache()

    def _evict_old(self) -> None:
        while len(self.windows) > self.max_windows:
            oldest = next(iter(self.windows))
            window = self.windows.pop(oldest)
            if window is self._cache_window:
                self._invalidate_cache()
            self._fold(window)

    def _fold(self, window: RollupWindow) -> None:
        into = self.folded
        for name, zero in _ROLLUP_COUNTERS:
            value = getattr(window, name)
            if isinstance(zero, dict):
                merged = getattr(into, name)
                for cause, amount in value.items():
                    merged[cause] = merged.get(cause, 0) + amount
            else:
                setattr(into, name, getattr(into, name) + value)

    def recent(self, limit: int | None = None) -> list[RollupWindow]:
        """Retained windows in index order (most recent last)."""
        windows = list(self.windows.values())
        if limit is not None and len(windows) > limit:
            windows = windows[-limit:]
        return windows


# -- flight recorder -----------------------------------------------------------


class FlightRecorder:
    """A fixed-size ring of the most recent events: the run's black box.

    Appending is O(1) with no allocation beyond the slot write. Slots hold
    the records a :class:`MonitorTracer` stamps (see
    :mod:`repro.telemetry.trace`), whether or not its run retains them, or
    :class:`TraceEvent` objects (replay and alerts). A dump writes a
    ``repro.flight`` JSONL document — header line (reason, virtual dump
    time, drop count) followed by the ringed events in arrival order with
    sorted keys and compact separators (the same encoding as
    :func:`~repro.telemetry.export.jsonl_lines`), so a seeded rerun
    produces a byte-identical dump.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.total = 0
        self._ring: list[TraceEvent | tuple | None] = [None] * capacity
        self._next = 0

    def __len__(self) -> int:
        return min(self.total, self.capacity)

    def append(self, event: "TraceEvent | tuple") -> None:
        self._ring[self._next] = event
        self._next = (self._next + 1) % self.capacity
        self.total += 1

    def snapshot(self) -> list[TraceEvent]:
        """Retained entries in arrival order (oldest first), a record as the
        event the trace view reads."""
        tail = self._ring[self._next:] + self._ring[: self._next]
        return [
            _as_event(e) if type(e) is tuple else e for e in tail if e is not None
        ]

    def dump(self, fp: IO[str], *, reason: str, ts: float) -> int:
        """Write the ring as a flight-record JSONL document; returns count."""
        import json

        events = self.snapshot()
        header = {
            "schema": "repro.flight",
            "schema_version": FLIGHT_SCHEMA_VERSION,
            "reason": reason,
            "ts": ts,
            "events": len(events),
            "dropped": self.total - len(events),
        }
        fp.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
        fp.write("\n")
        for event in events:
            doc = event.to_json()
            fp.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
            fp.write("\n")
        return len(events)


# Elastic-event kind -> totals key.
_ELASTIC_TOTALS = {
    DETACH: "detaches",
    RESIZE: "resizes",
    SNAPSHOT: "snapshots",
    RESTORE: "restores",
}


# -- alert rules ---------------------------------------------------------------


@dataclass(frozen=True)
class AlertRule:
    """One declarative per-window health check with hysteresis.

    ``metric`` names a selector the monitor computes per closed window (see
    :data:`METRIC_SELECTORS`); selectors may yield several labelled values
    (one per device or tenant), each tracked independently. The rule trips
    after ``trip_windows`` *consecutive* breaching windows and clears after
    ``clear_windows`` consecutive clean ones — a single noisy window never
    flaps an alert.
    """

    name: str
    metric: str
    threshold: float
    severity: str = "warning"
    trip_windows: int = 2
    clear_windows: int = 2
    description: str = ""


class AlertState:
    """Hysteresis bookkeeping for one (rule, label) pair."""

    __slots__ = ("rule", "label", "active", "breaches", "clears",
                 "value", "since", "fired")

    def __init__(self, rule: AlertRule, label: str) -> None:
        self.rule = rule
        self.label = label
        self.active = False
        self.breaches = 0
        self.clears = 0
        self.value = 0.0
        self.since = 0.0
        self.fired = 0

    def to_json(self) -> dict[str, Any]:
        return {
            "rule": self.rule.name,
            "label": self.label,
            "metric": self.rule.metric,
            "threshold": self.rule.threshold,
            "severity": self.rule.severity,
            "value": self.value,
            "since": self.since,
            "fired": self.fired,
        }


# Selector registry: metric name -> callable(monitor, window) -> {label: value}.
# Selectors that need bound context (capacities, quotas) yield nothing until
# the context is attached, so the rules are safe to leave in the default set.

def _sel_stall_fraction(monitor: "RuntimeMonitor", window: RollupWindow):
    return {"": window.stall_fraction}


def _sel_ping_pong_rate(monitor: "RuntimeMonitor", window: RollupWindow):
    return {"": window.ping_pong_rate}


def _sel_occupancy_fraction(monitor: "RuntimeMonitor", window: RollupWindow):
    out = {}
    for device, capacity in monitor.capacities.items():
        if capacity > 0:
            out[device] = monitor.occupancy.get(device, 0) / capacity
    return out


def _sel_quota_fraction(monitor: "RuntimeMonitor", window: RollupWindow):
    out = {}
    for (tenant, device), limit in monitor.quotas.items():
        if limit > 0:
            used = window.tenant_used.get(f"{tenant}/{device}", 0)
            out[f"{tenant}/{device}"] = used / limit
    return out


def _sel_fault_rate(monitor: "RuntimeMonitor", window: RollupWindow):
    return {"": window.faults / window.duration if window.duration else 0.0}


METRIC_SELECTORS: dict[
    str, Callable[["RuntimeMonitor", RollupWindow], Mapping[str, float]]
] = {
    "stall_fraction": _sel_stall_fraction,
    "ping_pong_rate": _sel_ping_pong_rate,
    "occupancy_fraction": _sel_occupancy_fraction,
    "quota_fraction": _sel_quota_fraction,
    "fault_rate": _sel_fault_rate,
}

DEFAULT_ALERT_RULES: tuple[AlertRule, ...] = (
    AlertRule(
        name="high-stall",
        metric="stall_fraction",
        threshold=0.5,
        severity="warning",
        description="over half the window spent stalled on data movement",
    ),
    AlertRule(
        name="ping-pong",
        metric="ping_pong_rate",
        threshold=8.0,
        severity="warning",
        description="sustained evict+prefetch churn (thrash)",
    ),
    AlertRule(
        name="near-capacity",
        metric="occupancy_fraction",
        threshold=0.95,
        severity="critical",
        trip_windows=3,
        description="device heap above 95% occupancy",
    ),
    AlertRule(
        name="quota-pressure",
        metric="quota_fraction",
        threshold=0.9,
        severity="warning",
        description="tenant within 10% of its device quota",
    ),
)

_SEVERITY_RANK = {"info": 0, "warning": 1, "critical": 2}


# -- health snapshot -----------------------------------------------------------


@dataclass
class HealthSnapshot:
    """Point-in-time health: totals, occupancy, latency sketches, alerts."""

    ts: float
    events_seen: int
    windows_closed: int
    status: str
    totals: dict[str, Any]
    occupancy: dict[str, dict[str, int]]
    tenants: dict[str, dict[str, int]]
    latencies: dict[str, dict[str, float]]
    active_alerts: list[dict[str, Any]]
    alerts_fired: int
    flight_dumps: list[str]
    recent_windows: list[dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "ts": self.ts,
            "events_seen": self.events_seen,
            "windows_closed": self.windows_closed,
            "status": self.status,
            "totals": self.totals,
            "occupancy": self.occupancy,
            "tenants": self.tenants,
            "latencies": self.latencies,
            "active_alerts": self.active_alerts,
            "alerts_fired": self.alerts_fired,
            "flight_dumps": self.flight_dumps,
            "recent_windows": self.recent_windows,
        }

    def render(self) -> str:
        """Human-readable dashboard block (the `repro monitor` body)."""
        lines = [
            f"health: {self.status.upper()}  t={self.ts:.3f}s  "
            f"events={self.events_seen}  windows={self.windows_closed}  "
            f"alerts_fired={self.alerts_fired}",
        ]
        totals = self.totals
        lines.append(
            f"  movement: {totals['copies']} copies / "
            f"{_fmt_bytes(totals['copy_bytes'])}   "
            f"stall {totals['stall_seconds']:.3f}s ({totals['stalls']}x)   "
            f"evict {totals['evictions']} / prefetch {totals['prefetches']}"
        )
        lines.append(
            f"  robustness: faults {totals['faults']}  "
            f"recoveries {totals['recoveries']}  "
            f"copy_retries {totals['copy_retries']}  "
            f"strikes {totals['strikes']}  "
            f"quarantines {totals['quarantines']}"
        )
        if self.occupancy:
            parts = []
            for device, occ in sorted(self.occupancy.items()):
                used = _fmt_bytes(occ["used"])
                cap = occ.get("capacity", 0)
                if cap:
                    parts.append(
                        f"{device} {used}/{_fmt_bytes(cap)} "
                        f"({occ['used'] / cap:.0%})"
                    )
                else:
                    parts.append(f"{device} {used}")
            lines.append("  occupancy: " + "   ".join(parts))
        for tenant, usage in sorted(self.tenants.items()):
            limit = usage.get("limit", 0)
            suffix = f" / {_fmt_bytes(limit)}" if limit else ""
            lines.append(
                f"  tenant {tenant}: {_fmt_bytes(usage['used'])}{suffix}"
            )
        for name, summary in sorted(self.latencies.items()):
            if not summary["count"]:
                continue
            lines.append(
                f"  {name}: n={int(summary['count'])}  "
                f"p50={summary['p50'] * 1e3:.3f}ms  "
                f"p95={summary['p95'] * 1e3:.3f}ms  "
                f"p99={summary['p99'] * 1e3:.3f}ms"
            )
        if self.active_alerts:
            for alert in self.active_alerts:
                label = f" [{alert['label']}]" if alert["label"] else ""
                lines.append(
                    f"  ALERT {alert['severity'].upper()} "
                    f"{alert['rule']}{label}: "
                    f"{alert['metric']}={alert['value']:.3f} "
                    f"> {alert['threshold']} (since t={alert['since']:.3f}s)"
                )
        else:
            lines.append("  alerts: none active")
        for path in self.flight_dumps:
            lines.append(f"  flight dump: {path}")
        return "\n".join(lines)


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}GiB"  # pragma: no cover - loop always returns


# -- the monitor ---------------------------------------------------------------

SKETCH_RELATIVE_ERROR = 0.005  # the latency sketches' quantile accuracy


@dataclass(frozen=True)
class MonitorConfig:
    """Tuning for :class:`RuntimeMonitor`; the defaults suit the repo's
    experiment scales (windows of 0.25 virtual seconds, a few hundred
    retained) and bound memory regardless of run length."""

    window_seconds: float = 0.25
    max_windows: int = 240
    ring_capacity: int = 512
    dump_dir: str | None = None
    max_dumps: int = 8
    rules: tuple[AlertRule, ...] = DEFAULT_ALERT_RULES


class RuntimeMonitor:
    """Consumes trace events; maintains rollups, sketches, ring, alerts.

    Pure observation with bounded memory: safe to leave attached to any
    run. Feed it live through :class:`MonitorTracer` or offline by calling
    :meth:`observe` over a replayed JSONL stream — both paths produce
    identical state for the same event sequence.
    """

    def __init__(self, config: MonitorConfig | None = None) -> None:
        self.config = config or MonitorConfig()
        cfg = self.config
        self.rollups = RollupAggregator(
            cfg.window_seconds, cfg.max_windows, on_close=self._on_close
        )
        self.ring = FlightRecorder(cfg.ring_capacity)
        self.kernel_latency = QuantileSketch(SKETCH_RELATIVE_ERROR)
        self.stall_latency = QuantileSketch(SKETCH_RELATIVE_ERROR)
        self.copy_latency = QuantileSketch(SKETCH_RELATIVE_ERROR)
        self.events_seen = 0
        self.last_ts = 0.0
        # Live aggregates (exact, maintained incrementally from events).
        self.occupancy: dict[str, int] = {}
        self.inflight_copy_bytes = 0
        self._inflight: dict[int, tuple[float, int]] = {}  # seq -> (ts, nbytes)
        self.totals: dict[str, Any] = {
            "copies": 0, "copy_bytes": 0, "copy_seconds": 0.0,
            "stalls": 0, "stall_seconds": 0.0,
            "evictions": 0, "prefetches": 0, "allocs": 0, "frees": 0,
            "kernels": 0, "kernel_seconds": 0.0,
            "kernel_compute_seconds": 0.0, "kernel_memory_seconds": 0.0,
            "kernel_fixed_seconds": 0.0,
            "gcs": 0, "gc_seconds": 0.0, "oom_retries": 0,
            "faults": 0, "recovery_steps": 0, "recoveries": 0,
            "copy_retries": 0, "strikes": 0, "quarantines": 0,
            "detaches": 0, "resizes": 0, "snapshots": 0, "restores": 0,
        }
        self.copies_by_cause: dict[str, int] = {}
        self.copy_seconds_by_cause: dict[str, float] = {}
        self.recovery_steps_by_rung: dict[str, int] = {}
        self.recoveries_by_step: dict[str, int] = {}
        # Per-tenant usage, estimated from stream-tagged alloc/free (see
        # bind_usage_probe for the exact live path). Keyed "tenant/device".
        self._tenant_used: dict[str, int] = {}
        self._region_tenant: dict[tuple[str, int], tuple[str, int]] = {}
        # Bound context (optional): device capacities, tenant quotas, and an
        # exact usage probe (the live DataManager's accounting).
        self.capacities: dict[str, int] = {}
        self.quotas: dict[tuple[str, str], int] = {}
        self._usage_probe: Callable[[], Mapping[tuple[str, str], int]] | None
        self._usage_probe = None
        # Alerting.
        self.rules: tuple[AlertRule, ...] = cfg.rules
        self._alert_states: dict[tuple[str, str], AlertState] = {}
        self.alerts_fired = 0
        self.alert_events: list[TraceEvent] = []
        self._alert_sink: Callable[[TraceEvent], None] | None = None
        # Flight dumps.
        self.dumps: list[str] = []
        self._dump_reasons: set[str] = set()
        self._dump_seq = 0

    # -- context binding -----------------------------------------------------

    def bind_capacities(self, capacities: Mapping[str, int]) -> None:
        """Attach device capacities (enables occupancy-fraction alerts).

        The mapping is held by reference and read at window close, so a
        live table (or one updated later) stays current.
        """
        self.capacities = capacities  # type: ignore[assignment]

    def bind_quotas(self, quotas: Mapping[tuple[str, str], int]) -> None:
        """Attach (tenant, device) -> byte quotas (enables quota alerts).

        Held by reference like :meth:`bind_capacities` — the runtime passes
        the manager's own quota table, so quotas set *after* attachment
        (tenants attach to a built runtime) are still seen.
        """
        self.quotas = quotas  # type: ignore[assignment]

    def bind_usage_probe(
        self, probe: Callable[[], Mapping[tuple[str, str], int]]
    ) -> None:
        """Attach an exact per-tenant usage source (the live manager).

        Offline replay falls back to the stream-tag estimate, which is exact
        until a defrag relocates regions (moves are not re-announced as
        alloc/free); live runs should always bind the probe.
        """
        self._usage_probe = probe

    def set_alert_sink(self, sink: Callable[[TraceEvent], None] | None) -> None:
        """Where emitted alert events go besides :attr:`alert_events`."""
        self._alert_sink = sink

    # -- event intake --------------------------------------------------------
    #
    # Two ways in, one fold per kind (``_FOLDS``, below the class). Each
    # rings the event, counts it in its window, then calls the kind's fold
    # with that window, the event's ts, kind, cause, root and stream, and
    # its fields and values in ``SCHEMA`` order. A live run's
    # ``MonitorTracer._event`` does so with the record its typed body
    # stamped, written in place. ``observe`` takes a finished
    # :class:`TraceEvent` (offline replay and hand-emitted events), maps
    # ``event.args`` onto the kind's row — tolerantly, since replay reads
    # foreign JSONL — and hands both to :meth:`note_event`.

    def observe(self, event: TraceEvent) -> None:
        """Fold one finished event into every monitor structure (the replay
        intake; a live run folds as each typed call reports)."""
        kind = event.kind
        # Other kinds (hint/place/decision/...) only count toward
        # window.events and ride in the flight ring.
        fields, values = _replay_row(kind, event.args) if kind in _FOLDS else ((), ())
        self.note_event(event, event.ts, kind, event.cause, event.root,
                        event.stream, fields, values)

    def observe_all(self, events: Iterable[TraceEvent]) -> "RuntimeMonitor":
        """Replay a whole event stream (offline mode); returns self."""
        for event in events:
            self.observe(event)
        return self

    def finish(self) -> None:
        """Close the trailing window so its stats and alerts are visible."""
        self.rollups.finish()

    def note_event(
        self, entry: TraceEvent, ts: float, kind: str, cause: str, root: str,
        stream: str, fields: tuple, values: tuple,
    ) -> None:
        """Ring ``entry``, count it in the window ``ts`` lands in, then fold
        its values if its kind is one the monitor folds."""
        self.ring.append(entry)
        self.events_seen += 1
        if ts > self.last_ts:
            self.last_ts = ts
        window = self.rollups.window_for(ts)
        window.events += 1
        fold = _FOLDS.get(kind)
        if fold is not None:
            fold(self, window, ts, kind, cause, root, stream, fields, values)

    # -- the folds -----------------------------------------------------------
    #
    # One per kind the monitor folds, all with one signature: the window the
    # event was counted in, then ts, kind, cause, root, stream, fields and
    # values, as a full-tier record holds them.

    def _fold_alloc(self, window, ts, kind, cause, root, stream, fields, values):
        # Either row (``SCHEMA`` or ``NAMED_REGION``): device first, offset
        # and nbytes last.
        device, offset, nbytes = values[0], values[-2], values[-1]
        window.allocs += 1
        window.alloc_bytes += nbytes
        self.totals["allocs"] += 1
        occupancy = self.occupancy
        occupancy[device] = occupancy.get(device, 0) + nbytes
        if stream:
            if offset is not None:
                self._region_tenant[(device, offset)] = (stream, nbytes)
            key = f"{stream}/{device}"
            self._tenant_used[key] = self._tenant_used.get(key, 0) + nbytes

    def _fold_free(self, window, ts, kind, cause, root, stream, fields, values):
        device, offset, nbytes = values[0], values[-2], values[-1]
        window.frees += 1
        window.free_bytes += nbytes
        self.totals["frees"] += 1
        occupancy = self.occupancy
        occupancy[device] = occupancy.get(device, 0) - nbytes
        owner = None
        if offset is not None and self._region_tenant:
            owner = self._region_tenant.pop((device, offset), None)
        tenant = owner[0] if owner else stream
        if tenant:
            key = f"{tenant}/{device}"
            remaining = self._tenant_used.get(key, 0) - nbytes
            if remaining > 0:
                self._tenant_used[key] = remaining
            else:
                self._tenant_used.pop(key, None)

    def _fold_copy_start(self, window, ts, kind, cause, root, stream, fields, values):
        # Bytes attribute to the *root* cause (who started the cascade);
        # seconds and counts to the *innermost* cause, the ``mechanism``
        # (what the copy mechanically was — an eviction nested under a
        # placement is still eviction work). In flight until the end with
        # the same ``seq`` lands.
        _, _, nbytes, _, seconds, seq = values
        bytes_cause, mechanism = cause_kind(root), cause_kind(cause)
        window.copies += 1
        window.copy_bytes += nbytes
        window.copy_seconds += seconds
        by_bytes = window.copy_bytes_by_cause
        by_bytes[bytes_cause] = by_bytes.get(bytes_cause, 0) + nbytes
        by_seconds = window.copy_seconds_by_cause
        by_seconds[mechanism] = by_seconds.get(mechanism, 0.0) + seconds
        by_count = window.copies_by_cause
        by_count[mechanism] = by_count.get(mechanism, 0) + 1
        totals = self.totals
        totals["copies"] += 1
        totals["copy_bytes"] += nbytes
        totals["copy_seconds"] += seconds
        self.copies_by_cause[mechanism] = (
            self.copies_by_cause.get(mechanism, 0) + 1
        )
        self.copy_seconds_by_cause[mechanism] = (
            self.copy_seconds_by_cause.get(mechanism, 0.0) + seconds
        )
        self.inflight_copy_bytes += nbytes
        if seq is not None:
            self._inflight[seq] = (ts, nbytes)

    def _fold_copy_end(self, window, ts, kind, cause, root, stream, fields, values):
        # Paired with its start by ``seq``; an unmatched end (a replayed
        # trace that begins mid-copy) only counts as an event.
        seq = values[3]
        started = None if seq is None else self._inflight.pop(seq, None)
        if started is not None:
            start_ts, nbytes = started
            self.inflight_copy_bytes -= nbytes
            self.copy_latency.observe(ts - start_ts)

    def _fold_kernel_end(self, window, ts, kind, cause, root, stream, fields, values):
        _, seconds, compute, memory, fixed, _ = values
        window.kernels += 1
        window.kernel_seconds += seconds
        window.kernel_compute_seconds += compute
        window.kernel_memory_seconds += memory
        window.kernel_fixed_seconds += fixed
        totals = self.totals
        totals["kernels"] += 1
        totals["kernel_seconds"] += seconds
        totals["kernel_compute_seconds"] += compute
        totals["kernel_memory_seconds"] += memory
        totals["kernel_fixed_seconds"] += fixed
        self.kernel_latency.observe(seconds)

    def _fold_stall(self, window, ts, kind, cause, root, stream, fields, values):
        seconds = values[1]
        window.stalls += 1
        window.stall_seconds += seconds
        self.totals["stalls"] += 1
        self.totals["stall_seconds"] += seconds
        self.stall_latency.observe(seconds)

    def _fold_gc(self, window, ts, kind, cause, root, stream, fields, values):
        seconds = values[0]
        window.gcs += 1
        window.gc_seconds += seconds
        self.totals["gcs"] += 1
        self.totals["gc_seconds"] += seconds

    def _fold_counted(self, window, ts, kind, cause, root, stream, fields, values):
        name, dump = _COUNTED[kind]
        self._count(window, name, ts, dump)

    def _fold_fault(self, window, ts, kind, cause, root, stream, fields, values):
        # The detail's ``fault`` names the dump where it has one, else the
        # site (``fault`` is never a row field, so the whole record is read).
        label = dict(zip(fields, values)).get("fault") or values[0] or "?"
        self._count(window, "faults", ts, f"fault:{label}")

    def _fold_recovery_step(
        self, window, ts, kind, cause, root, stream, fields, values
    ):
        step = values[0]
        self._count(window, "recovery_steps")
        self.recovery_steps_by_rung[step] = (
            self.recovery_steps_by_rung.get(step, 0) + 1
        )
        if step in _ESCALATION_STEPS:
            self._maybe_dump(f"recovery:{step}", ts)

    def _fold_recovery(self, window, ts, kind, cause, root, stream, fields, values):
        step = values[0]
        self._count(window, "recoveries")
        self.recoveries_by_step[step] = (
            self.recoveries_by_step.get(step, 0) + 1
        )

    def _fold_elastic(self, window, ts, kind, cause, root, stream, fields, values):
        """Totals only (elastic events have no window counters). Detach and
        resize name a flight dump by their subject (tenant, device)."""
        self.totals[_ELASTIC_TOTALS[kind]] += 1
        if kind in (DETACH, RESIZE):
            self._maybe_dump(f"{kind}:{values[0]}", ts)

    def _count(
        self, window: RollupWindow, name: str, ts: float = 0.0, dump: str = ""
    ) -> None:
        """A kind that is counted: ``name`` is both the window attribute and
        the totals key; ``dump`` names a flight dump."""
        setattr(window, name, getattr(window, name) + 1)
        self.totals[name] += 1
        if dump:
            self._maybe_dump(dump, ts)

    def _current_usage(self) -> Mapping[str, int]:
        """Per-tenant usage, "tenant/device"-keyed: exact probe when bound
        and populated (quota accounting only charges while quotas exist),
        else the stream-tag estimate."""
        if self._usage_probe is not None:
            probed = self._usage_probe()
            if probed:
                return {
                    f"{tenant}/{device}": used
                    for (tenant, device), used in probed.items()
                }
        return self._tenant_used

    # -- window close: snapshot live state + evaluate alerts -----------------

    def _on_close(self, window: RollupWindow) -> None:
        window.occupancy = dict(self.occupancy)
        window.inflight_copy_bytes = self.inflight_copy_bytes
        window.tenant_used = dict(self._current_usage())
        for rule in self.rules:
            selector = METRIC_SELECTORS.get(rule.metric)
            if selector is None:
                continue
            for label, value in selector(self, window).items():
                self._evaluate(rule, label, value, window)

    def _evaluate(
        self, rule: AlertRule, label: str, value: float, window: RollupWindow
    ) -> None:
        key = (rule.name, label)
        state = self._alert_states.get(key)
        if state is None:
            state = self._alert_states[key] = AlertState(rule, label)
        state.value = value
        if value > rule.threshold:
            state.breaches += 1
            state.clears = 0
            if not state.active and state.breaches >= rule.trip_windows:
                state.active = True
                state.since = window.end
                state.fired += 1
                self.alerts_fired += 1
                self._record_alert(rule, label, value, window, "firing")
        else:
            state.clears += 1
            state.breaches = 0
            if state.active and state.clears >= rule.clear_windows:
                state.active = False
                self._record_alert(rule, label, value, window, "resolved")

    def _record_alert(
        self,
        rule: AlertRule,
        label: str,
        value: float,
        window: RollupWindow,
        status: str,
    ) -> None:
        values = (rule.name, label, rule.metric, round(value, 6),
                  rule.threshold, rule.severity, status, window.index)
        event = TraceEvent(window.end, ALERT, dict(zip(SCHEMA[ALERT], values)))
        self.alert_events.append(event)
        self.ring.append(event)
        if self._alert_sink is not None:
            self._alert_sink(event)

    def active_alerts(self) -> list[AlertState]:
        """Currently-firing alerts, stable order (rule name, label)."""
        return sorted(
            (s for s in self._alert_states.values() if s.active),
            key=lambda s: (s.rule.name, s.label),
        )

    # -- flight dumps --------------------------------------------------------

    def record_escalation(self, reason: str, ts: float | None = None) -> None:
        """External dump trigger: something outside the event stream failed.

        The scheduler calls this when a stream aborts and harnesses may call
        it on contract violations — same dedupe/cap rules as the automatic
        in-stream triggers, so it is safe to call unconditionally.
        """
        self._maybe_dump(reason, self.last_ts if ts is None else ts)

    def _maybe_dump(self, reason: str, ts: float) -> None:
        # One automatic dump per distinct reason, capped: deterministic and
        # bounded even when a chaos plan fires the same fault repeatedly.
        if self.config.dump_dir is None:
            return
        if reason in self._dump_reasons:
            return
        if len(self.dumps) >= self.config.max_dumps:
            return
        self._dump_reasons.add(reason)
        self.dump_flight(reason=reason, ts=ts)

    def dump_flight(
        self, *, reason: str, ts: float | None = None, path: str | None = None
    ) -> str | None:
        """Write the flight ring to JSONL; returns the path (None if nowhere).

        ``path=None`` derives ``flight-<seq>-<reason>.jsonl`` under the
        configured ``dump_dir``; the sequence number and slug are functions
        of the event stream alone, so seeded reruns dump identical files to
        identical names.
        """
        import os

        if ts is None:
            ts = self.last_ts
        if path is None:
            if self.config.dump_dir is None:
                return None
            slug = "".join(
                ch if ch.isalnum() or ch in "-_" else "-" for ch in reason
            ).strip("-") or "dump"
            path = os.path.join(
                self.config.dump_dir,
                f"flight-{self._dump_seq:03d}-{slug}.jsonl",
            )
        self._dump_seq += 1
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            self.ring.dump(fp, reason=reason, ts=ts)
        self.dumps.append(path)
        return path

    # -- reporting -----------------------------------------------------------

    def latency_summaries(self) -> dict[str, dict[str, float]]:
        return {
            "kernel_seconds": self.kernel_latency.summary(),
            "stall_seconds": self.stall_latency.summary(),
            "copy_seconds": self.copy_latency.summary(),
        }

    def snapshot(self, *, recent_windows: int = 0) -> HealthSnapshot:
        """Current health; ``recent_windows`` > 0 inlines the latest rollups."""
        active = self.active_alerts()
        status = "ok"
        rank = -1
        for state in active:
            severity_rank = _SEVERITY_RANK.get(state.rule.severity, 1)
            if severity_rank > rank:
                rank = severity_rank
                status = state.rule.severity
        occupancy = {
            device: {
                "used": used,
                "capacity": self.capacities.get(device, 0),
            }
            for device, used in sorted(self.occupancy.items())
        }
        tenants: dict[str, dict[str, int]] = {}
        for key, used in sorted(self._current_usage().items()):
            tenant, _, device = key.partition("/")
            tenants[key] = {
                "used": used,
                "limit": self.quotas.get((tenant, device), 0),
            }
        recent = (
            [w.to_json() for w in self.rollups.recent(recent_windows)]
            if recent_windows
            else []
        )
        return HealthSnapshot(
            ts=self.last_ts,
            events_seen=self.events_seen,
            windows_closed=self.rollups.windows_closed,
            status=status,
            totals=dict(self.totals),
            occupancy=occupancy,
            tenants=tenants,
            latencies=self.latency_summaries(),
            active_alerts=[s.to_json() for s in active],
            alerts_fired=self.alerts_fired,
            flight_dumps=list(self.dumps),
            recent_windows=recent,
        )

    def counter_timelines(self) -> list[Timeline]:
        """Per-device occupancy and in-flight copy bytes as counter series.

        Sampled at window-close boundaries from the retained rollups — the
        Chrome-trace exporter renders these as Perfetto counter tracks next
        to the kernel lanes (the satellite-2 view).
        """
        windows = self.rollups.recent()
        devices = sorted(
            {device for w in windows for device in w.occupancy}
        )
        out: list[Timeline] = []
        for device in devices:
            series = Timeline(f"monitor.occupancy.{device}")
            for window in windows:
                if window.occupancy or window.events:
                    series.record(
                        window.end, float(window.occupancy.get(device, 0))
                    )
            if len(series):
                out.append(series)
        inflight = Timeline("monitor.copy_inflight")
        for window in windows:
            if window.events:
                inflight.record(window.end, float(window.inflight_copy_bytes))
        if len(inflight):
            out.append(inflight)
        return out


# -- the fold table ----------------------------------------------------------

# The kinds that are only counted -> (totals key and window attribute, the
# flight dump they name, if any).
_COUNTED = {
    EVICT: ("evictions", ""),
    PREFETCH: ("prefetches", ""),
    OOM_RETRY: ("oom_retries", ""),
    COPY_RETRY: ("copy_retries", ""),
    POLICY_STRIKE: ("strikes", "policy_strike"),
    QUARANTINE: ("quarantines", "quarantine"),
}

# Kind -> its fold: every kind the monitor folds, on both intakes (the live
# ``MonitorTracer._event`` and the replay ``RuntimeMonitor.observe``).
_FOLDS: dict[str, Callable[..., None]] = {
    ALLOC: RuntimeMonitor._fold_alloc,
    FREE: RuntimeMonitor._fold_free,
    COPY_START: RuntimeMonitor._fold_copy_start,
    COPY_END: RuntimeMonitor._fold_copy_end,
    KERNEL_END: RuntimeMonitor._fold_kernel_end,
    STALL: RuntimeMonitor._fold_stall,
    GC: RuntimeMonitor._fold_gc,
    FAULT: RuntimeMonitor._fold_fault,
    RECOVERY_STEP: RuntimeMonitor._fold_recovery_step,
    RECOVERY: RuntimeMonitor._fold_recovery,
    **dict.fromkeys(_COUNTED, RuntimeMonitor._fold_counted),
    **dict.fromkeys(_ELASTIC_TOTALS, RuntimeMonitor._fold_elastic),
}


def _replay_row(kind: str, args: Mapping[str, Any]) -> tuple[tuple, tuple]:
    """A replayed event's fields and values in its kind's ``SCHEMA`` order:
    each row field read through ``REPLAY_DEFAULTS``, then a fault's detail
    as it comes. Any other field the row does not name is dropped. A value
    its cast cannot read (a null or a word where a number belongs) reads as
    the default, as a missing one does, so no row field raises."""
    fields = SCHEMA[kind]
    values = []
    for name in fields:
        default, cast = REPLAY_DEFAULTS.get(name, (None, None))
        value = args.get(name, default)
        if cast is not None and value is not default:  # a None default stays
            try:
                value = cast(value)
            except (TypeError, ValueError):
                value = default
        values.append(value)
    if kind == FAULT:
        detail = tuple(key for key in args if key not in fields)
        fields += detail
        values += [args[key] for key in detail]
    return fields, tuple(values)


# -- tracer adapter ------------------------------------------------------------


class MonitorTracer(Tracer):
    """A :class:`Tracer` that streams events into a :class:`RuntimeMonitor`.

    Every typed call builds its record through :class:`Tracer`'s body,
    whose ``_event`` is extended here to ring the record, count it in its
    window and, for a kind the monitor folds, call the kind's fold with the
    values the body handed over — the fold ``observe`` reaches by re-reading
    ``event.args``. ``emit``/``emit_at`` (hand-built events) go through
    ``observe``. ``keep_events`` decides only whether the records are
    retained: with it (full tracing *plus* live monitoring, the
    profile/chaos configuration) they are, as on :class:`Tracer`; without
    it (the default) they are dropped as they are stamped, and the monitor
    and its ring are byte for byte the same.

    Either way the monitor is pure observation — it never advances the
    clock — so results are bit-identical with monitoring on or off.
    """

    def __init__(
        self,
        clock: "SimClock",
        monitor: RuntimeMonitor | None = None,
        *,
        keep_events: bool = False,
    ) -> None:
        super().__init__(clock)
        self.monitor = monitor if monitor is not None else RuntimeMonitor()
        self.monitor.set_alert_sink(self._log_alert)
        if not keep_events:
            # Retention is decided here, once — not by a flag every event
            # would have to test: the records go to a sink that keeps none.
            self._records = deque(maxlen=0)
            self.events = EventView(self._records)

    def emit(self, kind: str, **args: Any) -> TraceEvent:
        return self.emit_at(self.clock.now, kind, **args)

    def emit_at(self, ts: float, kind: str, **args: Any) -> TraceEvent:
        # A hand-built event: stamped (and retained if kept), then the
        # replay intake.
        record = Tracer._event(self, ts, kind, tuple(args), tuple(args.values()))
        event = _as_event(record)
        self.monitor.observe(event)
        return event

    def _log_alert(self, event: TraceEvent) -> None:
        # The monitor's alerts join the log as records, outside any scope.
        args = event.args
        self._records.append((event.ts, ALERT, "", "", None, "", tuple(args),
                              *args.values()))

    def _event(self, ts: float, kind: str, fields: tuple, values: tuple) -> tuple:
        # Tracer._event (stamp, retain), then what ``observe`` does — ring,
        # count, fold — with all three of Tracer._event,
        # ``FlightRecorder.append`` and ``RuntimeMonitor.note_event`` written
        # in place: this runs once per event of a traced run, and the calls
        # cost more than their bodies (the record layout is pinned by the
        # byte-identity tests). A copy's start record therefore folds before
        # its end is counted: that count may close the start's window,
        # which must see the copy in flight.
        stream, scopes = self.stream, self._scopes
        if scopes:
            root, root_ts = scopes[0]
            cause = scopes[-1][0]
            record = (ts, kind, cause, root, root_ts, stream, fields) + values
        else:
            cause = root = ""
            record = (ts, kind, "", "", None, stream, fields) + values
        self._records.append(record)
        monitor = self.monitor
        ring = monitor.ring
        ring._ring[ring._next] = record
        ring._next = (ring._next + 1) % ring.capacity
        ring.total += 1
        monitor.events_seen += 1
        if ts > monitor.last_ts:
            monitor.last_ts = ts
        rollups = monitor.rollups
        if rollups._cache_lo <= ts < rollups._cache_hi:
            window = rollups._cache_window
        else:
            window = rollups.window_for(ts)
        window.events += 1
        if kind in _FOLDS:
            _FOLDS[kind](monitor, window, ts, kind, cause, root, stream, fields,
                         values)
        return record

    # Unchanged from Tracer; bound here because the layered benchmark
    # resolves its telemetry spans through this class's own namespace.
    scope = Tracer.scope
    hint = Tracer.hint


def pick_tracer(clock: "SimClock", config: Any) -> "Tracer | NullTracer":
    """The one listener a run's instrumented sites call, chosen from the
    ``tracing`` / ``monitor`` / ``monitor_config`` fields of ``config`` (a
    ``SessionConfig`` or an ``ExperimentConfig``).

    Nothing asked for: the shared no-op :data:`NULL_TRACER`. ``tracing``
    alone: a recording :class:`Tracer`. ``monitor``: a fresh
    :class:`RuntimeMonitor` behind a :class:`MonitorTracer`, which retains
    its records only when ``tracing`` is on too.
    """
    if config.monitor:
        return MonitorTracer(
            clock, RuntimeMonitor(config.monitor_config), keep_events=config.tracing
        )
    return Tracer(clock) if config.tracing else NULL_TRACER

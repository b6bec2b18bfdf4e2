"""The movement profiler: ``python -m repro profile --model <key>``.

Runs one workload with event tracing enabled, then answers the question the
paper answers by hand in Section V: *which* decisions caused the data
movement? The text report ranks root causes ("top movers by cause" — a
``will_write`` hint on one tensor, an eviction cascade, a retire) by copied
bytes; the ``--out`` artifact is a Chrome trace-event JSON loadable in
Perfetto (see ``docs/observability.md``), and ``--jsonl`` streams the raw
events for diffing.

Model keys are the ones every command takes (Table III plus ``tiny``, see
:func:`repro.experiments.common.model_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments import report
from repro.experiments.common import ExperimentConfig, ModeResult, run_mode
from repro.telemetry.export import to_chrome_trace
from repro.telemetry.ledger import ObjectLedger, build_ledger
from repro.telemetry.monitor import MonitorConfig
from repro.telemetry.metrics import (
    Attribution,
    attribute_copies,
    derive_metrics,
)
from repro.units import format_size

__all__ = ["ProfileResult", "run_profile", "render"]


@dataclass
class ProfileResult:
    """One traced run plus its movement attribution."""

    model: str
    mode: str
    result: ModeResult
    attribution: Attribution
    metrics: dict[str, object]
    ledger: ObjectLedger

    @property
    def events(self) -> list:
        return self.result.run.trace

    def chrome_trace(self) -> dict:
        """The run as a Chrome trace-event document (Perfetto-loadable),
        with occupancy/traffic timelines as counter tracks — plus, when the
        runtime monitor rode along, its windowed rollup counters (per-device
        occupancy, in-flight copy bytes)."""
        timelines = [
            self.result.run.occupancy_timeline[name]
            for name in sorted(self.result.run.occupancy_timeline)
        ]
        if self.result.monitor is not None:
            timelines.extend(self.result.monitor.counter_timelines())
        return to_chrome_trace(self.events, timelines=timelines)


def run_profile(
    model: str,
    mode: str = "CA:LM",
    config: ExperimentConfig | None = None,
) -> ProfileResult:
    """Run ``model`` under ``mode`` with tracing forced on and attribute
    every copy to its root cause."""
    config = config if config is not None else ExperimentConfig(iterations=1)
    # Tracing on (the whole point); the runtime monitor rides along for its
    # counter timelines (occupancy, in-flight copy bytes) with alert rules
    # disabled so the recorded event stream stays byte-identical to a
    # monitor-less traced run.
    config = replace(
        config,
        tracing=True,
        monitor=True,
        monitor_config=MonitorConfig(rules=()),
    )
    result = run_mode(model, mode, config)
    events = result.run.trace
    return ProfileResult(
        model=model,
        mode=mode,
        result=result,
        attribution=attribute_copies(events),
        metrics=derive_metrics(events),
        ledger=build_ledger(events),
    )


def render(profile: ProfileResult, *, top: int = 15) -> str:
    """The text attribution report: top movers by cause."""
    attribution = profile.attribution
    iteration = profile.result.iteration
    scale = profile.result.config.scale
    lines = [
        report.header(
            f"movement profile: {profile.model} under {profile.mode}",
            f"{len(profile.events)} events, scale 1/{scale}, "
            f"{profile.result.config.iterations} iteration(s)",
        )
    ]
    lines.append(
        f"iteration time {iteration.seconds * scale:.2f} s (paper scale); "
        f"movement {iteration.movement_seconds * scale:.2f} s; "
        f"gc {iteration.gc_seconds * scale:.2f} s"
    )
    total = attribution.total_bytes
    lines.append(
        f"copied {format_size(total * scale)} in {attribution.total_copies} "
        f"copies; {attribution.attributed_fraction:.1%} of bytes attributed "
        "to a root cause"
    )
    if attribution.buckets:
        lines.append("")
        lines.append("top movers by cause:")
        rows = []
        for bucket in attribution.buckets[:top]:
            share = bucket.nbytes / total if total else 0.0
            rows.append(
                (
                    bucket.cause or "(unattributed)",
                    bucket.copies,
                    format_size(bucket.nbytes * scale),
                    f"{share:.1%}",
                )
            )
        lines.append(report.table(("cause", "copies", "bytes", "share"), rows))
        dropped = len(attribution.buckets) - top
        if dropped > 0:
            lines.append(f"... and {dropped} more cause(s)")
    latency = profile.metrics.get("trace.hint_to_movement_seconds")
    if latency:  # present once a copy carried a root timestamp
        lines.append(
            f"hint-to-movement latency: mean {latency['mean'] * scale * 1e3:.2f} ms, "
            f"max {latency['max'] * scale * 1e3:.2f} ms "
            f"over {latency['count']} copies (paper scale)"
        )
    cascade = profile.metrics.get("trace.eviction_cascade_depth")
    if cascade:
        lines.append(
            f"eviction scans: {cascade['count']}, mean cascade depth "
            f"{cascade['mean']:.1f}, max {cascade['max']:.0f}"
        )
    ledger = profile.ledger
    churn = ledger.churn()
    if churn["evictions"] or churn["prefetches"]:
        lines.append("")
        lines.append(
            f"object ledger: {churn['objects']} objects, "
            f"{churn['evictions']} evictions "
            f"({churn['evicted_objects']} distinct objects), "
            f"{churn['prefetches']} prefetches"
        )
        moved = ledger.top_moved(min(top, 8))
        if moved:
            rows = []
            for history in moved:
                ratio = history.movement_ratio
                rows.append(
                    (
                        history.name,
                        format_size(history.bytes_moved * scale),
                        f"{history.evictions}/{history.prefetches}",
                        "∞" if ratio == float("inf") else f"{ratio:.2f}",
                    )
                )
            lines.append("most-moved objects:")
            lines.append(
                report.table(
                    ("object", "moved", "evict/prefetch", "moved/used"), rows
                )
            )
        pongs = ledger.ping_pongs()
        if pongs:
            names = ", ".join(p.name for p in pongs[:8])
            suffix = "" if len(pongs) <= 8 else f" (+{len(pongs) - 8} more)"
            lines.append(
                f"ping-pong objects (evicted then refetched within 8 "
                f"kernels): {names}{suffix}"
            )
    return "\n".join(lines)

"""Telemetry: the software analogue of the paper's hardware counters.

The paper reads CPU performance counters to capture DRAM/NVRAM read and write
traffic (Figure 5), DRAM-cache tag statistics (Figure 4), bus utilisation
(Figure 6), and resident-heap timelines (Figure 3). This subpackage provides
the equivalent instrumentation for the simulated memory system, plus the
structured event-tracing layer (:mod:`repro.telemetry.trace`), the
trace-derived movement metrics (:mod:`repro.telemetry.metrics`), the
Perfetto/Chrome-trace and JSONL exporters (:mod:`repro.telemetry.export`),
the object-lifetime ledger (:mod:`repro.telemetry.ledger`), the cross-run
differential analyzer (:mod:`repro.telemetry.diff`), and the DAMOV-style
movement-bottleneck classifier (:mod:`repro.telemetry.taxonomy`) — see
``docs/observability.md``.
"""

from repro.telemetry.counters import TrafficCounters, TrafficSnapshot
from repro.telemetry.diff import (
    RunDiff,
    RunExplanation,
    diff_runs,
    explain_run,
    parse_run,
    stall_attribution,
    streams_in,
)
from repro.telemetry.export import (
    JSONL_SCHEMA_VERSION,
    EventStream,
    event_from_json,
    iter_jsonl,
    jsonl_lines,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.ledger import (
    LedgerBuilder,
    ObjectHistory,
    ObjectLedger,
    PingPong,
    build_ledger,
    label_subject,
)
from repro.telemetry.monitor import (
    DEFAULT_ALERT_RULES,
    AlertRule,
    AlertState,
    FlightRecorder,
    HealthSnapshot,
    MonitorConfig,
    MonitorTracer,
    QuantileSketch,
    RollupAggregator,
    RollupWindow,
    RuntimeMonitor,
)
from repro.telemetry.metrics import (
    Attribution,
    attribute_copies,
    derive_metrics,
)
from repro.telemetry.taxonomy import (
    CauseRollup,
    CostModel,
    Decomposition,
    Taxonomy,
    WindowSlice,
    classify_monitor,
    classify_trace,
    movement_intensity,
)
from repro.telemetry.timeline import Timeline, TimelineSample
from repro.telemetry.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    subject_label,
)

__all__ = [
    "TrafficCounters",
    "TrafficSnapshot",
    "Timeline",
    "TimelineSample",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "subject_label",
    "derive_metrics",
    "attribute_copies",
    "Attribution",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "jsonl_lines",
    "read_jsonl",
    "iter_jsonl",
    "EventStream",
    "event_from_json",
    "JSONL_SCHEMA_VERSION",
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
    "LedgerBuilder",
    "ObjectLedger",
    "ObjectHistory",
    "PingPong",
    "build_ledger",
    "label_subject",
    "RunDiff",
    "RunExplanation",
    "diff_runs",
    "explain_run",
    "parse_run",
    "stall_attribution",
    "streams_in",
    "CauseRollup",
    "CostModel",
    "Decomposition",
    "Taxonomy",
    "WindowSlice",
    "classify_monitor",
    "classify_trace",
    "movement_intensity",
]

"""Replay reads foreign JSONL tolerantly.

``repro monitor trace.jsonl`` folds whatever a trace file holds through
``RuntimeMonitor.observe``. A trace written by another tool (or an older or
newer schema) may lack fields, carry ints where this build writes floats,
add fields or kinds this build does not know, or begin mid-copy. None of
that may raise: a missing field reads as its replay default, a number is
cast to the type the fold expects, and what the monitor does not fold is
only counted. The literals below are what such a stream folds to.
"""

import io
import os

from repro.telemetry.export import iter_jsonl
from repro.telemetry.monitor import MonitorConfig, RuntimeMonitor

FOREIGN = """\
{"schema":"repro.trace","schema_version":3}
{"ts":0.1,"kind":"alloc","device":"DRAM"}
{"ts":0.2,"kind":"alloc","nbytes":64,"stream":"t0"}
{"ts":0.3,"kind":"alloc","device":"NVRAM","offset":128,"nbytes":256.0,"colour":"red"}
{"ts":0.4,"kind":"copy_start","src":"NVRAM","dst":"DRAM","nbytes":32,"seconds":1,"seq":"7","root":"evict:a"}
{"ts":0.5,"kind":"copy_start","seconds":0.25}
{"ts":1,"kind":"copy_end","seq":7}
{"ts":1.1,"kind":"copy_end","seq":99}
{"ts":1.2,"kind":"kernel_end","kernel":"k0","seconds":2}
{"ts":1.3,"kind":"kernel_end","kernel":"k1"}
{"ts":1.4,"kind":"stall","seconds":1}
{"ts":1.5,"kind":"teleport","device":"DRAM","nbytes":4096}
{"ts":1.6,"kind":"fault","site":"copy"}
{"ts":1.7,"kind":"recovery_step","device":"DRAM"}
{"ts":1.8,"kind":"detach"}
{"ts":1.9,"kind":"free","device":"NVRAM","offset":128,"nbytes":56}
"""


def test_foreign_jsonl_replays_to_fixed_totals(tmp_path):
    config = MonitorConfig(window_seconds=0.5, dump_dir=str(tmp_path))
    monitor = RuntimeMonitor(config)
    monitor.observe_all(iter_jsonl(io.StringIO(FOREIGN)))
    monitor.finish()

    assert monitor.events_seen == 15
    assert monitor.totals == {
        "copies": 2, "copy_bytes": 32, "copy_seconds": 1.25,
        "stalls": 1, "stall_seconds": 1.0,
        "evictions": 0, "prefetches": 0, "allocs": 3, "frees": 1,
        "kernels": 2, "kernel_seconds": 2.0,
        "kernel_compute_seconds": 0.0, "kernel_memory_seconds": 0.0,
        "kernel_fixed_seconds": 0.0,
        "gcs": 0, "gc_seconds": 0.0, "oom_retries": 0,
        "faults": 1, "recovery_steps": 1, "recoveries": 0,
        "copy_retries": 0, "strikes": 0, "quarantines": 0,
        "detaches": 1, "resizes": 0, "snapshots": 0, "restores": 0,
    }
    assert monitor.occupancy == {"DRAM": 0, "?": 64, "NVRAM": 200}
    assert monitor._current_usage() == {"t0/?": 64}
    assert monitor.recovery_steps_by_rung == {"?": 1}
    assert monitor.copies_by_cause == {"unattributed": 2}
    # The copy with seq 7 landed; the one without a seq never left flight,
    # and the end with seq 99 had no start to pair with.
    assert monitor.inflight_copy_bytes == 0
    assert monitor.latency_summaries() == {
        "kernel_seconds": {
            "count": 2, "sum": 2.0, "min": 0.0, "max": 2.0, "mean": 1.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        },
        "stall_seconds": {
            "count": 1, "sum": 1.0, "min": 1.0, "max": 1.0, "mean": 1.0,
            "p50": 1.0, "p95": 1.0, "p99": 1.0,
        },
        "copy_seconds": {
            "count": 1, "sum": 0.6, "min": 0.6, "max": 0.6, "mean": 0.6,
            "p50": 0.6, "p95": 0.6, "p99": 0.6,
        },
    }
    assert [os.path.basename(path) for path in monitor.dumps] == [
        "flight-000-fault-copy.jsonl",
        "flight-001-detach.jsonl",
    ]


def test_an_unreadable_number_reads_as_its_default():
    """A null or a word where a number belongs reads as the field's replay
    default, whether or not the kind's fold reads the field."""
    monitor = RuntimeMonitor(MonitorConfig(window_seconds=0.5))
    monitor.observe_all(iter_jsonl(io.StringIO(
        '{"ts":0.1,"kind":"alloc","device":"DRAM","offset":"x","nbytes":"lots"}\n'
        '{"ts":0.2,"kind":"alloc","device":"DRAM","offset":0,"nbytes":64}\n'
        '{"ts":0.3,"kind":"evict","obj":"a","nbytes":null}\n'
        '{"ts":0.4,"kind":"stall","seconds":"long"}\n'
        '{"ts":0.5,"kind":"copy_end","seq":"seven"}\n'
    )))
    assert monitor.events_seen == 5
    assert monitor.occupancy == {"DRAM": 64}
    assert monitor.totals["allocs"] == 2
    assert monitor.totals["evictions"] == 1
    assert (monitor.totals["stalls"], monitor.totals["stall_seconds"]) == (1, 0.0)

"""A monitored run reports the same whether or not it keeps its records.

Random sequences of the 18 typed calls the monitor folds (plus a few kinds
it does not fold, and the attribution scopes around copies) go to a
``MonitorTracer`` that keeps its records (``keep_events=True``) and to one
that does not (the default). Everything the monitor reports must be
byte-identical between the two: the health snapshot with every retained
window, the flight ring's dump, the latency summaries and the flight-dump
files. A replay of the kept records through ``observe()`` must land on the
same totals, occupancy, tenant usage, sketches, per-cause copy maps and
dump reasons. One model run under eviction pressure checks what the
random sequences cannot reach: copies attributed to evictions nested in
placement scopes.
"""

import io
import os
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import ExperimentConfig, run_trace_mode
from repro.sim.clock import SimClock
from repro.telemetry.monitor import (
    MonitorConfig,
    MonitorTracer,
    QuantileSketch,
    RuntimeMonitor,
)
from repro.telemetry.trace import ALERT, RESTORE, SNAPSHOT
from repro.workloads.signatures import tiny_objects_trace

WINDOW = 0.25
TICK = 1 / 64  # exact in binary, so a timestamp's window is never in doubt

names = st.sampled_from(["a", "b", "c"])
devices = st.sampled_from(["DRAM", "NVRAM"])
tenants = st.sampled_from(["", "t0", "t1"])
sizes = st.integers(0, 1 << 20)
counts = st.integers(0, 9)
seconds = st.floats(0.0, 2.0, allow_nan=False)
ticks = st.integers(0, 24).map(lambda k: k * TICK)

# Scope contexts a copy runs under: (scopes to open, innermost-scope key,
# root-scope key).
CONTEXTS = (
    ((), "unattributed", "unattributed"),
    ((("scope", "evict", "v"),), "evict", "evict"),
    ((("hint", "will_read", "a"), ("scope", "evict", "v")),
     "evict", "hint:will_read"),
    ((("scope", "place", "p"),), "place", "place"),
)


def op(kind, *args):
    return st.tuples(st.just(kind), *args)


OPS = st.one_of(
    op("alloc", devices, counts.map(lambda k: 64 * k), sizes, st.none() | names),
    op("free", devices, counts.map(lambda k: 64 * k), sizes, st.none() | names),
    op("copy", devices, devices, sizes, st.integers(1, 8), ticks, ticks,
       st.integers(0, len(CONTEXTS) - 1)),
    op("copy_retry", devices, devices, sizes, counts,
       st.sampled_from(["fail", "corrupt"])),
    op("prefetch", names, devices, devices, sizes),
    op("evict", names, devices, devices, sizes, st.booleans()),
    op("kernel_end", names, seconds, seconds, seconds, seconds,
       st.sampled_from(["fwd", "bwd"])),
    op("stall", names, seconds),
    op("gc", seconds),
    op("oom_retry", names, sizes),
    op("fault", st.sampled_from(["alloc", "copy", "bandwidth"]), devices, st.just("*"),
       counts, st.sampled_from([{}, {"nbytes": 64}])),
    op("recovery_step",
       st.sampled_from(["collect", "evict", "defrag", "fallback", "exhausted"]),
       devices, sizes, sizes, st.booleans(), tenants),
    op("recovery", st.sampled_from(["collect", "evict", "fallback"]), devices, sizes,
       st.just("collect,evict"), tenants),
    op("policy_strike", names, counts, st.just("PolicyError"), tenants),
    op("quarantine", names, st.just("static"), counts),
    op("detach", tenants, counts, sizes, sizes),
    op("resize", devices, sizes, sizes, st.sampled_from(["grow", "shrink"])),
    op("checkpoint", st.sampled_from([SNAPSHOT, RESTORE]), names, counts),
    # Kinds the monitor does not fold: counted and rung only.
    op("place", names, devices, sizes),
    op("kernel_start", names),
)
STEPS = st.lists(st.tuples(ticks, tenants, OPS), max_size=40)


def run(steps, keep_events, dump_dir):
    """Drive one monitored tracer; returns it and each copy's bytes with
    its expected (innermost, root) cause keys."""
    clock = SimClock()
    config = MonitorConfig(
        window_seconds=WINDOW, max_windows=1 << 16, dump_dir=dump_dir,
        max_dumps=1 << 16,
    )
    tracer = MonitorTracer(clock, RuntimeMonitor(config), keep_events=keep_events)
    copy_keys = []
    for seq, (dt, stream, (kind, *args)) in enumerate(steps):
        clock.advance(dt)
        tracer.stream = stream
        if kind == "copy":
            src, dst, nbytes, threads, duration, lead, context = args
            scopes, *keys = CONTEXTS[context]
            opened = []
            for how, scope_kind, subject in scopes:
                opened.append(getattr(tracer, how)(scope_kind, subject))
                opened[-1].__enter__()
            tracer.copy(src, dst, nbytes, threads, duration, clock.now + lead, seq)
            for scope in reversed(opened):
                scope.__exit__(None, None, None)
            copy_keys.append((nbytes, keys))
        elif kind == "copy_retry":
            tracer.copy_retry(clock.now, *args)
        else:
            getattr(tracer, kind)(*args)
    tracer.monitor.finish()
    return tracer, copy_keys


def report(monitor, dump_dir):
    """Everything the monitor reports, in bytes where it writes bytes."""
    snapshot = monitor.snapshot(recent_windows=1 << 20).to_json()
    snapshot["flight_dumps"] = [
        os.path.relpath(path, dump_dir) for path in snapshot["flight_dumps"]
    ]
    ring = io.StringIO()
    monitor.ring.dump(ring, reason="pin", ts=monitor.last_ts)
    dumps = {path.name: path.read_bytes() for path in Path(dump_dir).iterdir()}
    return snapshot, ring.getvalue(), monitor.latency_summaries(), dumps


def shared_state(monitor):
    """What the live fold and its replay must agree on."""
    return {
        "totals": monitor.totals,
        "occupancy": monitor.occupancy,
        "tenant_used": monitor._current_usage(),
        "recovery_steps_by_rung": monitor.recovery_steps_by_rung,
        "recoveries_by_step": monitor.recoveries_by_step,
        "sketches": [
            [getattr(sketch, slot) for slot in QuantileSketch.__slots__]
            for sketch in (
                monitor.kernel_latency, monitor.stall_latency, monitor.copy_latency
            )
        ],
    }


def by_cause(monitor, counter):
    merged = Counter()
    for window in monitor.rollups.windows.values():
        merged.update(getattr(window, counter))
    return {key: value for key, value in merged.items() if value}


@settings(deadline=None)
@given(STEPS)
def test_keeping_records_changes_nothing_the_monitor_reports(steps):
    with tempfile.TemporaryDirectory() as dropped_dir, \
            tempfile.TemporaryDirectory() as kept_dir, \
            tempfile.TemporaryDirectory() as replay_dir:
        dropped_tracer, copy_keys = run(steps, False, dropped_dir)
        kept_tracer, _ = run(steps, True, kept_dir)
        dropped, kept = dropped_tracer.monitor, kept_tracer.monitor

        assert len(dropped_tracer.events) == 0
        assert len(kept_tracer.events) == kept.events_seen + len(kept.alert_events)
        assert report(dropped, dropped_dir) == report(kept, kept_dir)

        # The kept records, replayed, fold to the same state.
        replay = RuntimeMonitor(replace(kept.config, dump_dir=replay_dir))
        replay.observe_all(e for e in kept_tracer.events if e.kind != ALERT)
        replay.finish()
        assert shared_state(replay) == shared_state(kept)
        assert replay.events_seen == kept.events_seen

        # Copy attribution: bytes by the root scope, seconds and counts by
        # the innermost one.
        count, nbytes_by_root = Counter(), Counter()
        for nbytes, (inner_key, root_key) in copy_keys:
            count[inner_key] += 1
            nbytes_by_root[root_key] += nbytes
        assert kept.copies_by_cause == replay.copies_by_cause == dict(count)
        assert sum(kept.copies_by_cause.values()) == kept.totals["copies"]
        assert by_cause(kept, "copy_bytes_by_cause") == {
            k: v for k, v in nbytes_by_root.items() if v
        }
        assert by_cause(replay, "copy_bytes_by_cause") == by_cause(
            kept, "copy_bytes_by_cause"
        )

        # Flight dumps: the same reasons on replay; snapshot/restore name
        # none.
        checkpoints = {
            f"{args[0]}:{args[1]}"
            for _, _, (kind, *args) in steps if kind == "checkpoint"
        }
        assert replay._dump_reasons == kept._dump_reasons
        assert not checkpoints & kept._dump_reasons


def test_eviction_pressure_attributes_copies_to_evict():
    """Thousands of small objects at DRAM capacity: evictions run inside
    placement scopes, and the per-cause copy counts key by the innermost
    scope, so some land on ``evict``; the counts add up to every copy."""
    config = ExperimentConfig(scale=2048, iterations=1, monitor=True)
    trace = tiny_objects_trace().scaled(2048)
    monitor = run_trace_mode(trace, "CA:LM", config).monitor
    assert monitor.copies_by_cause.get("evict", 0) > 0
    assert sum(monitor.copies_by_cause.values()) == monitor.totals["copies"]

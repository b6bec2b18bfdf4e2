"""What ``tracer.events`` reads back, call by call.

Pinned before retained events changed representation: for every typed call
an instrumented site can make, for ``emit``/``emit_at`` and for an alert, on
the recording :class:`Tracer` and on the full monitored tier
(``MonitorTracer(keep_events=True)``), under no scope, one scope and two
nested scopes, with and without a stream tag, ``tracer.events[i]`` equals
the event written out here and its ``to_json()`` keys come in the same
order. The second half pins the sequence protocol readers rely on.
"""

import gc

import pytest

from repro.experiments.common import ExperimentConfig, model_trace, run_trace_mode
from repro.sim.clock import SimClock
from repro.telemetry.monitor import (
    AlertRule,
    MonitorConfig,
    MonitorTracer,
    RuntimeMonitor,
)
from repro.telemetry.trace import (
    ALERT,
    ALLOC,
    COPY_END,
    COPY_RETRY,
    COPY_START,
    DECISION,
    DEFRAG,
    DETACH,
    EVICT,
    EVICT_SCAN,
    FAULT,
    FREE,
    GC,
    HINT,
    INVARIANT_CHECK,
    KERNEL_END,
    KERNEL_START,
    OOM_RETRY,
    PLACE,
    POLICY_STRIKE,
    PREFETCH,
    QUARANTINE,
    RECOVERY,
    RECOVERY_STEP,
    REQUEST,
    RESIZE,
    SETDIRTY,
    SETPRIMARY,
    SNAPSHOT,
    STALL,
    TraceEvent,
    Tracer,
)

NOW = 3.0

# name -> (the call, [(ts, kind, args), ...] it records, in order).
CALLS = {
    "alloc": (
        lambda t: t.alloc("DRAM", 4096, 64),
        [(NOW, ALLOC, {"device": "DRAM", "offset": 4096, "nbytes": 64})],
    ),
    "alloc_named": (
        lambda t: t.alloc("DRAM", 4096, 64, "w0"),
        [(NOW, ALLOC, {"device": "DRAM", "obj": "w0", "offset": 4096, "nbytes": 64})],
    ),
    "free": (
        lambda t: t.free("NVRAM", 0, 128),
        [(NOW, FREE, {"device": "NVRAM", "offset": 0, "nbytes": 128})],
    ),
    "free_named": (
        lambda t: t.free("NVRAM", 0, 128, "w1"),
        [(NOW, FREE, {"device": "NVRAM", "obj": "w1", "offset": 0, "nbytes": 128})],
    ),
    "setprimary": (
        lambda t: t.setprimary("a1", "DRAM", 256),
        [(NOW, SETPRIMARY, {"obj": "a1", "device": "DRAM", "nbytes": 256})],
    ),
    "setdirty": (
        lambda t: t.setdirty("a1", "DRAM", 256, True),
        [(NOW, SETDIRTY, {"obj": "a1", "device": "DRAM", "nbytes": 256,
                          "dirty": True})],
    ),
    "evict_scan": (
        lambda t: t.evict_scan("DRAM", 3, 512),
        [(NOW, EVICT_SCAN, {"device": "DRAM", "depth": 3, "nbytes": 512})],
    ),
    "defrag": (
        lambda t: t.defrag("DRAM", 4),
        [(NOW, DEFRAG, {"device": "DRAM", "moves": 4})],
    ),
    "copy": (
        lambda t: t.copy("DRAM", "NVRAM", 64, 8, 0.25, 3.5, 7),
        [
            (3.25, COPY_START, {"src": "DRAM", "dst": "NVRAM", "nbytes": 64,
                                "threads": 8, "seconds": 0.25, "seq": 7}),
            (3.5, COPY_END, {"src": "DRAM", "dst": "NVRAM", "nbytes": 64, "seq": 7}),
        ],
    ),
    "copy_retry": (
        lambda t: t.copy_retry(2.75, "DRAM", "NVRAM", 64, 2, "corrupt"),
        [(2.75, COPY_RETRY, {"src": "DRAM", "dst": "NVRAM", "nbytes": 64,
                             "attempt": 2, "reason": "corrupt"})],
    ),
    "place": (
        lambda t: t.place("a2", "NVRAM", 32),
        [(NOW, PLACE, {"obj": "a2", "device": "NVRAM", "nbytes": 32})],
    ),
    "prefetch": (
        lambda t: t.prefetch("a2", "NVRAM", "DRAM", 32),
        [(NOW, PREFETCH, {"obj": "a2", "src": "NVRAM", "dst": "DRAM", "nbytes": 32})],
    ),
    "evict": (
        lambda t: t.evict("a3", "DRAM", "NVRAM", 32, False),
        [(NOW, EVICT, {"obj": "a3", "src": "DRAM", "dst": "NVRAM", "nbytes": 32,
                       "clean": False})],
    ),
    "decision": (
        lambda t: t.decision(
            "OptimizingPolicy", "evict", "DRAM", 96, "a4", 2,
            [{"obj": "a5", "rank": 0, "reason": "pinned"}], 0, rank=1, tier=0,
        ),
        [(NOW, DECISION, {"policy": "OptimizingPolicy", "action": "evict",
                          "device": "DRAM", "need": 96, "chosen": "a4",
                          "considered": 2,
                          "rejected": [{"obj": "a5", "rank": 0, "reason": "pinned"}],
                          "rejected_dropped": 0, "rank": 1, "tier": 0})],
    ),
    "kernel_start": (
        lambda t: t.kernel_start("conv1"),
        [(NOW, KERNEL_START, {"kernel": "conv1"})],
    ),
    "kernel_end": (
        lambda t: t.kernel_end("conv1", 0.5, 0.25, 0.125, 0.0625, "forward"),
        [(NOW, KERNEL_END, {"kernel": "conv1", "seconds": 0.5, "compute": 0.25,
                            "memory": 0.125, "fixed": 0.0625, "phase": "forward"})],
    ),
    "stall": (
        lambda t: t.stall("conv2", 0.75, [("a6", 0.5), ("a7", 0.25)]),
        [(NOW, STALL, {"kernel": "conv2", "seconds": 0.75, "objects": ["a6", "a7"],
                       "charged": [0.5, 0.25]})],
    ),
    "stall_unblamed": (
        lambda t: t.stall("conv2", 0.75),
        [(NOW, STALL, {"kernel": "conv2", "seconds": 0.75, "objects": [],
                       "charged": []})],
    ),
    "gc": (
        lambda t: t.gc(0.125),
        [(NOW, GC, {"seconds": 0.125})],
    ),
    "oom_retry": (
        lambda t: t.oom_retry("a8", 1024),
        [(NOW, OOM_RETRY, {"obj": "a8", "nbytes": 1024})],
    ),
    "invariant_check": (
        lambda t: t.invariant_check(12),
        [(NOW, INVARIANT_CHECK, {"kernels": 12})],
    ),
    "fault": (
        lambda t: t.fault(
            "copy", "DRAM", "copyto", 5, {"fault": "copy_flaky", "nth": 2}
        ),
        [(NOW, FAULT, {"site": "copy", "device": "DRAM", "op": "copyto", "index": 5,
                       "fault": "copy_flaky", "nth": 2})],
    ),
    "recovery_step": (
        lambda t: t.recovery_step("collect", "DRAM", 512, 128, True, "t0"),
        [(NOW, RECOVERY_STEP, {"step": "collect", "device": "DRAM", "requested": 512,
                               "free": 128, "acted": True, "tenant": "t0"})],
    ),
    "recovery": (
        lambda t: t.recovery("evict", "DRAM", 512, "collect,evict", "t0"),
        [(NOW, RECOVERY, {"step": "evict", "device": "DRAM", "requested": 512,
                          "steps": "collect,evict", "tenant": "t0"})],
    ),
    "policy_strike": (
        lambda t: t.policy_strike("will_read", 1, "PolicyError: boom", "t0"),
        [(NOW, POLICY_STRIKE, {"op": "will_read", "strikes": 1,
                               "error": "PolicyError: boom", "tenant": "t0"})],
    ),
    "quarantine": (
        lambda t: t.quarantine("OptimizingPolicy", "StaticPolicy", 3),
        [(NOW, QUARANTINE, {"policy": "OptimizingPolicy", "fallback": "StaticPolicy",
                            "strikes": 3})],
    ),
    "detach": (
        lambda t: t.detach("t1", 4, 2048, 4096),
        [(NOW, DETACH, {"tenant": "t1", "objects": 4, "nbytes": 2048, "quota": 4096})],
    ),
    "resize": (
        lambda t: t.resize("DRAM", 4096, 2048, "manual"),
        [(NOW, RESIZE, {"device": "DRAM", "old": 4096, "new": 2048, "via": "manual"})],
    ),
    "checkpoint": (
        lambda t: t.checkpoint(SNAPSHOT, "k20", 20),
        [(NOW, SNAPSHOT, {"label": "k20", "kernels": 20})],
    ),
    "request": (
        lambda t: t.request("r3", "small", "completed", 0.5, 0.125),
        [(NOW, REQUEST, {"request": "r3", "klass": "small", "outcome": "completed",
                         "seconds": 0.5, "queue_wait": 0.125})],
    ),
    "hint": (
        lambda t: t.hint("will_read", "a9"),
        [(NOW, HINT, {"hint": "will_read", "subject": "a9"})],
    ),
    "emit": (
        lambda t: t.emit("custom", zeta=1, alpha={"nested": [1, 2]}),
        [(NOW, "custom", {"zeta": 1, "alpha": {"nested": [1, 2]}})],
    ),
    "emit_at": (
        lambda t: t.emit_at(1.75, EVICT, obj="b0", nbytes=8),
        [(1.75, EVICT, {"obj": "b0", "nbytes": 8})],
    ),
}

# (scopes opened, the cause, root and root_ts every event then carries).
SCOPES = {
    0: ("", "", None),
    1: ("evict:a3", "evict:a3", 2.0),
    2: ("evict:a3", "gc", 1.0),
}

TIERS = {
    "tracer": lambda clock: Tracer(clock),
    "monitor": lambda clock: MonitorTracer(
        clock, RuntimeMonitor(MonitorConfig(rules=())), keep_events=True
    ),
}


def _record(tier, depth, stream, call):
    """Open ``depth`` scopes (the outer at t=1, the inner at t=2), tag the
    stream, make ``call`` at t=3; returns the tracer."""
    clock = SimClock()
    tracer = TIERS[tier](clock)
    tracer.stream = stream
    clock.advance(1.0, "kernel")
    if depth == 2:
        outer = tracer.scope("gc")
        outer.__enter__()
    clock.advance(1.0, "kernel")
    if depth:
        inner = tracer.scope("evict", "a3")
        inner.__enter__()
    clock.advance(1.0, "kernel")
    call(tracer)
    return tracer


def _key_order(event):
    return list(event.to_json())


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_call_reads_back_as_its_event(name, tier):
    call, expected = CALLS[name]
    for depth, (cause, root, root_ts) in SCOPES.items():
        for stream in ("", "t1"):
            tracer = _record(tier, depth, stream, call)
            want = [
                TraceEvent(ts, kind, args, cause, root, root_ts, stream)
                for ts, kind, args in expected
            ]
            assert len(tracer.events) == len(want), (depth, stream)
            for index, event in enumerate(want):
                got = tracer.events[index]
                assert got == event, (depth, stream, index)
                assert _key_order(got) == _key_order(event), (depth, stream)


def _alerting_tracer():
    rule = AlertRule(
        name="high-stall", metric="stall_fraction", threshold=0.5,
        trip_windows=1, clear_windows=1,
    )
    clock = SimClock()
    tracer = MonitorTracer(
        clock,
        RuntimeMonitor(MonitorConfig(window_seconds=1.0, rules=(rule,))),
        keep_events=True,
    )
    return clock, tracer


@pytest.mark.parametrize("depth", sorted(SCOPES))
@pytest.mark.parametrize("stream", ["", "t1"])
def test_an_alert_enters_the_log_unscoped_and_untagged(depth, stream):
    """The monitor raises an alert when a window closes; it is logged right
    after the event that closed the window, with no cause or stream of its
    own whatever the caller had open."""
    clock, tracer = _alerting_tracer()
    tracer.stream = stream
    clock.advance(0.25, "kernel")
    scopes = [tracer.scope("gc"), tracer.scope("evict", "a3")][2 - depth:]
    for scope in scopes:
        scope.__enter__()
    tracer.stall("conv1", 0.75)
    clock.advance(1.0, "kernel")
    tracer.gc(0.125)
    cause, root, root_ts = {
        0: ("", "", None),
        1: ("evict:a3", "evict:a3", 0.25),
        2: ("evict:a3", "gc", 0.25),
    }[depth]
    want = [
        TraceEvent(0.25, STALL, {"kernel": "conv1", "seconds": 0.75, "objects": [],
                                 "charged": []}, cause, root, root_ts, stream),
        TraceEvent(1.25, GC, {"seconds": 0.125}, cause, root, root_ts, stream),
        TraceEvent(1.0, ALERT, {"rule": "high-stall", "label": "", "metric":
                                "stall_fraction", "value": 0.75, "threshold": 0.5,
                                "severity": "warning", "status": "firing",
                                "window": 0}),
    ]
    assert len(tracer.events) == 3
    for index, event in enumerate(want):
        assert tracer.events[index] == event, index
        assert _key_order(tracer.events[index]) == _key_order(event)
    assert tracer.monitor.alert_events == [want[2]]


# -- the sequence protocol -------------------------------------------------------


@pytest.mark.parametrize("tier", sorted(TIERS))
def test_the_log_is_a_sequence_of_events(tier):
    clock = SimClock()
    tracer = TIERS[tier](clock)
    assert tracer.events == []
    assert len(tracer.events) == 0
    for index in range(4):
        clock.advance(1.0, "kernel")
        tracer.gc(index / 8)
    events = tracer.events
    assert len(events) == 4
    assert events[-1] == TraceEvent(4.0, GC, {"seconds": 3 / 8})
    assert events[-1] == events[3]
    assert [e.ts for e in events[1:3]] == [2.0, 3.0]
    assert [e.ts for e in events[::-2]] == [4.0, 2.0]
    first = [e.to_json() for e in events]
    assert [e.to_json() for e in events] == first  # iterating twice
    assert events == list(events) and list(events) == events
    assert events != [] and events != list(events)[:3]
    with pytest.raises(IndexError):
        events[4]
    tracer.clear()
    assert tracer.events == [] and len(events) == 0
    tracer.gc(1.0)
    assert [e.ts for e in tracer.events] == [4.0]


# -- what the log costs the cyclic collector ------------------------------------


def test_retained_events_are_not_tracked_by_the_collector():
    """A traced, monitored run keeps every event, and a full collection
    walks every object still tracked. The collector untracks a record once
    it has seen it, so after one collection the tracked heap has grown by
    the run's own objects and the rare list-carrying records (stall,
    decision), not by one object per event."""
    config = ExperimentConfig(scale=256, iterations=10, tracing=True, monitor=True)
    trace = model_trace("tiny", config)
    gc.collect()
    before = len(gc.get_objects())
    result = run_trace_mode(trace, "CA:LMP", config)
    gc.collect()
    grown = len(gc.get_objects()) - before
    retained = len(result.run.trace)
    assert retained > 5000
    assert grown < 0.1 * retained, (grown, retained)

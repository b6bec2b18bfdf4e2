"""Both live monitor tiers and the replay intake land on the same state.

Random sequences of the 18 typed calls the monitor folds (plus a few kinds
it does not fold, and the attribution scopes around copies) go to the
monitor-only tier (``MonitorTracer()``), to the full tier
(``MonitorTracer(keep_events=True)``) and, through ``observe()``, to a
replay of the full tier's retained events. Totals, occupancy, tenant usage,
recovery tallies and latency sketches must be identical on all three. The
differences ``telemetry/monitor.py`` keeps on purpose are asserted as
such: per-window event counts, copy attribution keys and the flight dumps
snapshot/restore name.
"""

import tempfile
from collections import Counter
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import SimClock
from repro.telemetry.monitor import (
    MonitorConfig,
    MonitorTracer,
    QuantileSketch,
    RuntimeMonitor,
)
from repro.telemetry.trace import ALERT, RESTORE, SNAPSHOT

WINDOW = 0.25
TICK = 1 / 64  # exact in binary, so a timestamp's window is never in doubt

names = st.sampled_from(["a", "b", "c"])
devices = st.sampled_from(["DRAM", "NVRAM"])
tenants = st.sampled_from(["", "t0", "t1"])
sizes = st.integers(0, 1 << 20)
counts = st.integers(0, 9)
seconds = st.floats(0.0, 2.0, allow_nan=False)
ticks = st.integers(0, 24).map(lambda k: k * TICK)

# Scope contexts a copy runs under: (scopes to open, monitor-only key, full
# tier's innermost-scope key, full tier's root-scope key).
CONTEXTS = (
    ((), "unattributed", "unattributed", "unattributed"),
    ((("scope", "evict", "v"),), "evict", "evict", "evict"),
    ((("hint", "will_read", "a"), ("scope", "evict", "v")),
     "evict", "evict", "hint:will_read"),
    ((("scope", "place", "p"),), "unattributed", "place", "place"),
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
    # Kinds the monitor does not fold: only the full tier sees them.
    op("place", names, devices, sizes),
    op("kernel_start", names),
)
STEPS = st.lists(st.tuples(ticks, tenants, OPS), max_size=40)


def run(steps, keep_events, dump_dir):
    """Drive one tier; returns the tracer, the timestamps of the events only
    the full tier sees (the unfolded kinds and hint events) and each copy's
    bytes with its expected keys."""
    clock = SimClock()
    config = MonitorConfig(
        window_seconds=WINDOW, max_windows=1 << 16, dump_dir=dump_dir,
        max_dumps=1 << 16,
    )
    tracer = MonitorTracer(clock, RuntimeMonitor(config), keep_events=keep_events)
    unfolded = []
    copy_keys = []
    for seq, (dt, stream, (kind, *args)) in enumerate(steps):
        clock.advance(dt)
        tracer.stream = stream
        if kind == "copy":
            src, dst, nbytes, threads, duration, lead, context = args
            scopes, *keys = CONTEXTS[context]
            opened = []
            for how, scope_kind, subject in scopes:
                if how == "hint":
                    unfolded.append(clock.now)
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
            if kind in ("place", "kernel_start"):
                unfolded.append(clock.now)
    tracer.monitor.finish()
    return tracer, unfolded, copy_keys


def shared_state(monitor):
    """What every intake must agree on."""
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
def test_both_live_tiers_and_replay_fold_the_same_state(steps):
    with tempfile.TemporaryDirectory() as cheap_dir, \
            tempfile.TemporaryDirectory() as full_dir, \
            tempfile.TemporaryDirectory() as replay_dir:
        cheap_tracer, _, copy_keys = run(steps, False, cheap_dir)
        full_tracer, unfolded, _ = run(steps, True, full_dir)
        cheap, full = cheap_tracer.monitor, full_tracer.monitor
        replay = RuntimeMonitor(replace(full.config, dump_dir=replay_dir))
        replay.observe_all(e for e in full_tracer.events if e.kind != ALERT)
        replay.finish()

        assert len(cheap_tracer.events) == 0
        assert shared_state(cheap) == shared_state(full) == shared_state(replay)

        # Window event counts: the monitor-only tier does not see the kinds
        # it does not fold.
        assert replay.events_seen == full.events_seen
        assert cheap.events_seen == full.events_seen - len(unfolded)
        missed = Counter(int(ts / WINDOW) for ts in unfolded)
        for index, window in full.rollups.windows.items():
            cheap_window = cheap.rollups.windows.get(index)
            cheap_events = cheap_window.events if cheap_window else 0
            assert window.events - cheap_events == missed[index], index

        # Copy attribution: the monitor-only tier keys bytes, seconds and
        # counts by its one tracked scope; the full tier (and its replay)
        # keys bytes by the root scope and seconds and counts by the
        # innermost one.
        cheap_count, full_count, full_bytes, cheap_bytes = (Counter() for _ in range(4))
        for nbytes, (cheap_key, inner_key, root_key) in copy_keys:
            cheap_count[cheap_key] += 1
            cheap_bytes[cheap_key] += nbytes
            full_count[inner_key] += 1
            full_bytes[root_key] += nbytes
        assert cheap.copies_by_cause == dict(cheap_count)
        assert full.copies_by_cause == replay.copies_by_cause == dict(full_count)
        assert by_cause(cheap, "copy_bytes_by_cause") == {
            k: v for k, v in cheap_bytes.items() if v
        }
        assert by_cause(full, "copy_bytes_by_cause") == {
            k: v for k, v in full_bytes.items() if v
        }
        assert by_cause(replay, "copy_bytes_by_cause") == by_cause(
            full, "copy_bytes_by_cause"
        )

        # Flight dumps: snapshot/restore name one on the monitor-only tier
        # only; every other reason is the same on all three.
        checkpoints = {
            f"{args[0]}:{args[1]}"
            for _, _, (kind, *args) in steps if kind == "checkpoint"
        }
        assert replay._dump_reasons == full._dump_reasons
        assert not checkpoints & full._dump_reasons
        assert cheap._dump_reasons == full._dump_reasons | checkpoints

"""``SCHEMA`` is the event schema.

Every typed ``Tracer`` body hands ``_event`` its kind's ``SCHEMA`` row as
the record's field names (a ``decision``'s extras and a ``fault``'s detail
extend it; an ``alloc``/``free`` naming its object uses ``NAMED_REGION``),
every event kind has a row, and the monitor folds exactly the kinds it
always has, through one table every intake shares.
"""

from repro.sim.clock import SimClock
from repro.telemetry.monitor import _FOLDS, MonitorConfig, MonitorTracer, RuntimeMonitor
from repro.telemetry.trace import (
    ALERT,
    EVENT_KINDS,
    NAMED_REGION,
    REPLAY_DEFAULTS,
    RESTORE,
    SCHEMA,
    SNAPSHOT,
    NullTracer,
    Tracer,
)

# One call per typed body: (method, positional args, kwargs, fields past the
# row). ``alloc``/``free`` with an object name and ``checkpoint`` twice.
CALLS = (
    ("alloc", ("DRAM", 0, 64), {}, ()),
    ("free", ("DRAM", 0, 64), {}, ()),
    ("setprimary", ("a", "DRAM", 64), {}, ()),
    ("setdirty", ("a", "DRAM", 64, True), {}, ()),
    ("evict_scan", ("DRAM", 2, 128), {}, ()),
    ("defrag", ("DRAM", 3), {}, ()),
    ("copy", ("NVRAM", "DRAM", 64, 4, 0.5, 1.0, 7), {}, ()),
    ("copy_retry", (0.5, "NVRAM", "DRAM", 64, 1, "corrupt"), {}, ()),
    ("place", ("a", "DRAM", 64), {}, ()),
    ("prefetch", ("a", "NVRAM", "DRAM", 64), {}, ()),
    ("evict", ("a", "DRAM", "NVRAM", 64, False), {}, ()),
    ("decision", ("lru", "evict", "DRAM", 64, "a", 3, [], 0),
     {"tier": 1, "score": 0.5}, ("tier", "score")),
    ("kernel_start", ("k",), {}, ()),
    ("kernel_end", ("k", 1.0, 0.5, 0.25, 0.25, "fwd"), {}, ()),
    ("stall", ("k", 0.5, [("a", 0.25)]), {}, ()),
    ("gc", (0.1,), {}, ()),
    ("oom_retry", ("a", 64), {}, ()),
    ("invariant_check", (12,), {}, ()),
    ("fault", ("alloc", "DRAM", "*", 0, {"fault": "oom", "nbytes": 64}), {},
     ("fault", "nbytes")),
    ("recovery_step", ("collect", "DRAM", 64, 0, True, "t0"), {}, ()),
    ("recovery", ("collect", "DRAM", 64, "collect", "t0"), {}, ()),
    ("policy_strike", ("place", 1, "PolicyError", "t0"), {}, ()),
    ("quarantine", ("lru", "static", 3), {}, ()),
    ("detach", ("t0", 2, 128, 256), {}, ()),
    ("resize", ("DRAM", 128, 256, "grow"), {}, ()),
    ("checkpoint", (SNAPSHOT, "k3", 3), {}, ()),
    ("checkpoint", (RESTORE, "k3", 3), {}, ()),
    ("request", ("r0", "small", "served", 0.5, 0.1), {}, ()),
)

# The kinds the monitor folds: every kind it folded before replay and the
# live tiers shared one fold table.
FOLDED_KINDS = {
    "kernel_end", "alloc", "free", "copy_start", "copy_end", "stall", "gc",
    "evict", "prefetch", "oom_retry", "copy_retry", "fault", "recovery_step",
    "recovery", "policy_strike", "quarantine", "detach", "resize", "snapshot",
    "restore",
}


def typed_calls(cls):
    return {
        name for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
        and name not in ("emit", "emit_at", "scope", "hint", "hints", "clear")
    }


def test_every_typed_body_records_its_kinds_row():
    assert {name for name, *_ in CALLS} == typed_calls(NullTracer)
    tracer = Tracer(SimClock())
    for name, args, kwargs, extra in CALLS:
        before = len(tracer._records)
        getattr(tracer, name)(*args, **kwargs)
        records = tracer._records[before:]
        assert records, name
        for record in records:
            kind, fields = record[1], record[6]
            assert fields == SCHEMA[kind] + extra, name
            assert len(record) == 7 + len(fields), name
            if not extra:
                assert fields is SCHEMA[kind], name  # the row itself, shared
    for name in ("alloc", "free"):
        getattr(tracer, name)("DRAM", 0, 64, "a")
        assert tracer._records[-1][6] is NAMED_REGION
    # A named row keeps the places a fold reads: device first, offset and
    # nbytes last.
    for kind in ("alloc", "free"):
        row = SCHEMA[kind]
        assert (NAMED_REGION[0], *NAMED_REGION[-2:]) == (row[0], *row[-2:])


def test_hints_and_alerts_record_their_rows():
    clock = SimClock()
    tracer = MonitorTracer(
        clock, RuntimeMonitor(MonitorConfig(window_seconds=0.25)), keep_events=True
    )

    class Obj:
        name = "a"

    with tracer.hint("will_read", "a", [Obj()], [Obj()]):
        pass
    assert [record[6] for record in tracer._records] == [SCHEMA["hint"]] * 3
    for _ in range(4):  # two breaching windows trip the stall alert
        clock.advance(0.25)
        tracer.stall("k", 0.25)
    alerts = [record for record in tracer._records if record[1] == ALERT]
    assert alerts
    assert all(record[6] == SCHEMA[ALERT] for record in alerts)


def test_every_kind_has_a_row_and_the_monitor_folds_the_same_kinds():
    assert EVENT_KINDS == set(SCHEMA)
    assert set(_FOLDS) == FOLDED_KINDS
    rows = {name for row in SCHEMA.values() for name in row}
    assert set(REPLAY_DEFAULTS) <= rows

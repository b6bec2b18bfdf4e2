"""The always-on runtime monitor: rollups, flight recorder, alerts (PR 6).

Covers the tentpole's contracts: bounded-memory windowed rollups whose
totals stay exact across folding, a deterministic flight-recorder ring,
alert hysteresis (no single-window flapping), the MonitorTracer adapter,
and the two acceptance criteria that make the tier safe to leave on —
results bit-identical with the monitor on or off, and byte-identical
flight dumps across seeded reruns.
"""

import json
from dataclasses import replace

import pytest

from repro.sim.clock import SimClock
from repro.telemetry.monitor import (
    AlertRule,
    FlightRecorder,
    MonitorConfig,
    MonitorTracer,
    QuantileSketch,
    RollupAggregator,
    RuntimeMonitor,
    cause_kind,
)
from repro.telemetry.trace import (
    ALERT,
    ALLOC,
    COPY_END,
    COPY_START,
    FAULT,
    FREE,
    KERNEL_END,
    STALL,
    TraceEvent,
)


def ev(ts, kind, stream="", root="", **args):
    return TraceEvent(ts, kind, args, "", root, None, stream)


# -- cause bucketing -----------------------------------------------------------


def test_cause_kind_bounds_cardinality():
    assert cause_kind("hint:will_write:a7") == "hint:will_write"
    assert cause_kind("hint:archive:conv3.w") == "hint:archive"
    assert cause_kind("evict:conv3.w") == "evict"
    assert cause_kind("gc") == "gc"
    assert cause_kind("") == "unattributed"


# -- rollup windows ------------------------------------------------------------


def test_events_land_in_their_virtual_time_windows():
    agg = RollupAggregator(window_seconds=1.0, max_windows=16)
    agg.window_for(0.2).copies += 1
    agg.window_for(0.9).copies += 1
    agg.window_for(2.5).copies += 1
    windows = {w.index: w for w in agg.recent()}
    assert windows[0].copies == 2
    assert windows[2].copies == 1
    assert windows[0].start == 0.0 and windows[0].end == 1.0


def test_close_fires_once_per_window_in_order_with_gaps():
    closed = []
    agg = RollupAggregator(1.0, 16, on_close=lambda w: closed.append(w.index))
    agg.window_for(0.5)
    agg.window_for(3.5)  # skips windows 1 and 2: both materialise and close
    agg.window_for(4.5)
    assert closed == [0, 1, 2, 3]
    agg.finish()
    assert closed == [0, 1, 2, 3, 4]


def test_totals_stay_exact_across_window_folding():
    agg = RollupAggregator(1.0, max_windows=4)
    for i in range(10):
        window = agg.window_for(i + 0.5)
        window.copies += 1
        window.copy_bytes += 100
    assert len(agg.recent()) <= 4
    retained = sum(w.copies for w in agg.recent())
    assert retained + agg.folded.copies == 10
    assert agg.folded.copy_bytes + sum(
        w.copy_bytes for w in agg.recent()
    ) == 1000


def test_an_idle_gap_costs_the_retention_span_not_the_gap():
    """One event 10^9 windows after the last closes the retained window and
    the trailing ``max_windows`` gap windows; the unobservable middle is
    skipped, not walked (`monitor --interval 1e-12` used to never return)."""
    import time

    closed = []
    agg = RollupAggregator(1.0, 240, on_close=lambda w: closed.append(w.index))
    agg.window_for(0.5).copies += 1
    started = time.perf_counter()
    agg.window_for(1e9 + 0.5).copies += 1
    assert time.perf_counter() - started < 1.0
    assert closed == [0, *range(10**9 - 240, 10**9)]
    assert agg.windows_closed == 241
    assert [w.index for w in agg.recent()] == list(range(10**9 - 239, 10**9 + 1))
    assert agg.folded.copies == 1


def test_an_empty_window_reports_float_zeros_for_the_seconds_sums():
    text = json.dumps(RollupAggregator(1.0, 4).folded.to_json())
    assert '"copies": 0,' in text and '"copy_seconds": 0.0,' in text
    assert '"stall_fraction": 0.0,' in text and '"copy_bytes_by_cause": {}' in text


def test_aggregator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RollupAggregator(0.0, 4)
    with pytest.raises(ValueError):
        RollupAggregator(1.0, 0)


# -- flight recorder -----------------------------------------------------------


def test_ring_keeps_most_recent_events_in_arrival_order():
    ring = FlightRecorder(capacity=4)
    for i in range(7):
        ring.append(ev(float(i), KERNEL_END, seconds=0.1))
    assert len(ring) == 4
    assert ring.total == 7
    assert [e.ts for e in ring.snapshot()] == [3.0, 4.0, 5.0, 6.0]


def test_dump_writes_flight_header_then_events(tmp_path):
    ring = FlightRecorder(capacity=8)
    for i in range(3):
        ring.append(ev(float(i), COPY_START, nbytes=10))
    path = tmp_path / "flight.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        count = ring.dump(fp, reason="test", ts=2.0)
    assert count == 3
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["schema"] == "repro.flight"
    assert header["reason"] == "test"
    assert header["events"] == 3 and header["dropped"] == 0
    assert all(json.loads(line)["kind"] == COPY_START for line in lines[1:])


def _faulty_sequence():
    events = []
    for i in range(40):
        events.append(ev(i * 0.1, COPY_START, nbytes=64, seq=i, root="evict:a1"))
        events.append(ev(i * 0.1 + 0.05, COPY_END, seq=i))
    events.append(ev(4.2, FAULT, fault="copy_flaky"))
    return events


def test_flight_dumps_byte_identical_across_identical_runs(tmp_path):
    paths = []
    for run in ("a", "b"):
        monitor = RuntimeMonitor(
            MonitorConfig(dump_dir=str(tmp_path / run))
        )
        monitor.observe_all(_faulty_sequence())
        assert len(monitor.dumps) == 1
        paths.append(monitor.dumps[0])
    import os

    assert os.path.basename(paths[0]) == os.path.basename(paths[1])
    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
        assert fa.read() == fb.read()


def test_dump_dedupe_and_cap(tmp_path):
    monitor = RuntimeMonitor(MonitorConfig(dump_dir=str(tmp_path), max_dumps=2))
    for i in range(5):
        monitor.observe(ev(float(i), FAULT, fault="same"))  # dedup by reason
    assert len(monitor.dumps) == 1
    monitor.record_escalation("abort:CopyError")
    monitor.record_escalation("abort:CopyError")  # deduped
    assert len(monitor.dumps) == 2
    monitor.record_escalation("another")  # over max_dumps: dropped
    assert len(monitor.dumps) == 2


def test_no_dump_dir_means_no_dumps():
    monitor = RuntimeMonitor()
    monitor.observe(ev(0.0, FAULT, fault="x"))
    monitor.record_escalation("abort:Boom")
    assert monitor.dumps == []


# -- monitor folding -----------------------------------------------------------


def test_monitor_folds_movement_stalls_and_occupancy():
    monitor = RuntimeMonitor(MonitorConfig(window_seconds=1.0))
    monitor.observe(ev(0.1, ALLOC, device="DRAM", nbytes=100, offset=0))
    monitor.observe(
        ev(0.2, COPY_START, nbytes=64, seq=0, root="hint:will_write:a0")
    )
    monitor.observe(ev(0.5, COPY_END, seq=0))
    monitor.observe(ev(0.6, STALL, seconds=0.25))
    monitor.observe(ev(0.7, KERNEL_END, seconds=0.4))
    monitor.observe(ev(0.8, FREE, device="DRAM", nbytes=40, offset=0))
    monitor.finish()
    assert monitor.totals["copies"] == 1
    assert monitor.totals["copy_bytes"] == 64
    assert monitor.totals["stall_seconds"] == pytest.approx(0.25)
    assert monitor.occupancy["DRAM"] == 60
    assert monitor.copy_latency.count == 1
    assert monitor.copy_latency.maximum == pytest.approx(0.3)
    (window,) = monitor.rollups.recent()
    assert window.copy_bytes_by_cause == {"hint:will_write": 64}
    assert window.occupancy["DRAM"] == 60  # snapshotted at close


def test_tenant_usage_estimated_from_stream_tags():
    monitor = RuntimeMonitor()
    monitor.observe(
        ev(0.1, ALLOC, stream="cnn", device="DRAM", nbytes=100, offset=0)
    )
    monitor.observe(
        ev(0.2, ALLOC, stream="dlrm", device="DRAM", nbytes=50, offset=100)
    )
    monitor.observe(ev(0.3, FREE, device="DRAM", nbytes=100, offset=0))
    snapshot = monitor.snapshot()
    assert snapshot.tenants == {"dlrm/DRAM": {"used": 50, "limit": 0}}


def test_quota_binding_is_by_reference():
    # The runtime binds the manager's live quota table *before* tenants set
    # their quotas; the monitor must see later updates.
    monitor = RuntimeMonitor(
        MonitorConfig(
            window_seconds=1.0,
            rules=(
                AlertRule(
                    name="quota-pressure",
                    metric="quota_fraction",
                    threshold=0.9,
                    trip_windows=1,
                ),
            ),
        )
    )
    quotas: dict = {}
    monitor.bind_quotas(quotas)
    quotas[("cnn", "DRAM")] = 100  # set after binding
    monitor.observe(
        ev(0.1, ALLOC, stream="cnn", device="DRAM", nbytes=95, offset=0)
    )
    monitor.observe(ev(1.1, KERNEL_END, seconds=0.1))  # closes window 0
    (alert,) = monitor.active_alerts()
    assert alert.label == "cnn/DRAM"
    assert alert.value == pytest.approx(0.95)


# -- alert hysteresis ----------------------------------------------------------


STALL_RULE = AlertRule(
    name="high-stall",
    metric="stall_fraction",
    threshold=0.5,
    trip_windows=2,
    clear_windows=2,
)


def _stall_monitor():
    return RuntimeMonitor(
        MonitorConfig(window_seconds=1.0, rules=(STALL_RULE,))
    )


def test_alert_trips_only_after_consecutive_breaches():
    monitor = _stall_monitor()
    monitor.observe(ev(0.1, STALL, seconds=0.8))
    monitor.observe(ev(1.1, STALL, seconds=0.9))  # closes w0: breach 1
    assert monitor.active_alerts() == []
    monitor.observe(ev(2.1, KERNEL_END, seconds=0.1))  # closes w1: breach 2
    (alert,) = monitor.active_alerts()
    assert alert.rule.name == "high-stall"
    assert alert.since == 2.0  # end of the tripping window
    assert monitor.alerts_fired == 1


def test_single_noisy_window_never_fires():
    monitor = _stall_monitor()
    monitor.observe(ev(0.1, STALL, seconds=0.9))
    monitor.observe(ev(1.1, KERNEL_END, seconds=0.1))  # w0 breaches, w1 clean
    monitor.observe(ev(2.1, KERNEL_END, seconds=0.1))
    monitor.finish()
    assert monitor.alerts_fired == 0


def test_alert_clears_after_consecutive_clean_windows():
    monitor = _stall_monitor()
    monitor.observe(ev(0.1, STALL, seconds=0.8))
    monitor.observe(ev(1.1, STALL, seconds=0.9))
    monitor.observe(ev(2.1, KERNEL_END, seconds=0.1))  # trips here
    assert len(monitor.active_alerts()) == 1
    monitor.observe(ev(3.1, KERNEL_END, seconds=0.1))  # clean 1
    assert len(monitor.active_alerts()) == 1  # hysteresis holds
    monitor.observe(ev(4.1, KERNEL_END, seconds=0.1))  # clean 2: resolves
    assert monitor.active_alerts() == []
    statuses = [e.args["status"] for e in monitor.alert_events]
    assert statuses == ["firing", "resolved"]
    assert all(e.kind == ALERT for e in monitor.alert_events)


def test_snapshot_status_reflects_worst_active_severity():
    critical = replace(STALL_RULE, name="crit", severity="critical")
    monitor = RuntimeMonitor(
        MonitorConfig(window_seconds=1.0, rules=(STALL_RULE, critical))
    )
    monitor.observe(ev(0.1, STALL, seconds=0.9))
    monitor.observe(ev(1.1, STALL, seconds=0.9))
    monitor.observe(ev(2.1, KERNEL_END, seconds=0.1))
    snapshot = monitor.snapshot()
    assert snapshot.status == "critical"
    assert len(snapshot.active_alerts) == 2
    assert "ALERT CRITICAL" in snapshot.render()


# -- the tracer adapter --------------------------------------------------------


def test_monitor_tracer_folds_without_retaining_by_default():
    tracer = MonitorTracer(SimClock())
    # Scopes attribute exactly as on the full tier; only retention differs.
    with tracer.scope("hint:will_write", "a7"):
        tracer.emit(COPY_START, nbytes=32, seq=0)
    assert tracer.events == []  # retains nothing
    assert tracer.monitor.events_seen == 1
    window = tracer.monitor.rollups.window_for(0.0)
    assert window.copy_bytes_by_cause == {"hint:will_write": 32}


def test_both_monitor_tiers_survive_a_pickle_round_trip_as_themselves():
    """Snapshots pickle the tracer; a restored run must keep, or keep not
    keeping, its records."""
    import pickle

    for keep_events in (False, True):
        tracer = MonitorTracer(SimClock(), keep_events=keep_events)
        tracer.gc(0.5)
        restored = pickle.loads(pickle.dumps(tracer))
        assert type(restored) is MonitorTracer and restored.enabled
        assert restored.events._records is restored._records
        restored.gc(0.25)
        assert len(restored.events) == (2 if keep_events else 0)
        assert restored.monitor.totals["gcs"] == 2
        assert restored.monitor.ring.total == 2


def test_monitor_tracer_keep_events_gives_full_tracing_plus_alerts():
    monitor = RuntimeMonitor(MonitorConfig(window_seconds=1.0, rules=(STALL_RULE,)))
    clock = SimClock()
    tracer = MonitorTracer(clock, monitor, keep_events=True)
    tracer.emit(STALL, seconds=0.9)
    clock.advance(1.05, "kernel")
    tracer.emit(STALL, seconds=0.9)
    clock.advance(1.05, "kernel")
    tracer.emit(KERNEL_END, seconds=0.1)  # closes w1: alert trips
    kinds = [e.kind for e in tracer.events]
    assert kinds.count(STALL) == 2
    assert ALERT in kinds  # the sink routed the alert into the trace


def test_monitor_tracer_emit_at_supports_async_completions():
    tracer = MonitorTracer(SimClock())
    tracer.emit(COPY_START, nbytes=16, seq=3)
    tracer.emit_at(0.5, COPY_END, seq=3)
    assert tracer.monitor.copy_latency.count == 1
    assert tracer.monitor.inflight_copy_bytes == 0


def test_copy_straddling_a_window_is_in_flight_when_its_start_window_closes():
    """The copy's start folds before its end is counted: counting the end
    closes the start's window, and that window must report the copy as in
    flight — on the typed call, records kept or not, and on replay."""
    config = MonitorConfig(window_seconds=1.0, rules=())

    def copy_across_the_boundary(keep_events):
        clock = SimClock()
        clock.advance(0.5, "kernel")
        tracer = MonitorTracer(clock, RuntimeMonitor(config), keep_events=keep_events)
        tracer.copy("NVRAM", "DRAM", 64, 1, 1.0, 1.5, 0)
        return tracer

    full = copy_across_the_boundary(True)
    replayed = RuntimeMonitor(config).observe_all(full.events)
    cheap = copy_across_the_boundary(False).monitor
    for monitor in (full.monitor, replayed, cheap):
        first, second = monitor.rollups.recent()
        assert (first.copies, first.inflight_copy_bytes) == (1, 64)
        assert monitor.inflight_copy_bytes == 0
        monitor.finish()
        assert second.inflight_copy_bytes == 0
        assert monitor.copy_latency.count == 1


def test_counter_timelines_expose_occupancy_and_inflight():
    monitor = RuntimeMonitor(MonitorConfig(window_seconds=1.0))
    monitor.observe(ev(0.1, ALLOC, device="DRAM", nbytes=128, offset=0))
    monitor.observe(ev(1.1, ALLOC, device="NVRAM", nbytes=64, offset=0))
    monitor.finish()
    names = {t.name for t in monitor.counter_timelines()}
    assert "monitor.occupancy.DRAM" in names
    assert "monitor.copy_inflight" in names


# -- the acceptance criteria ---------------------------------------------------


def test_monitor_on_off_results_bit_identical():
    """The monitor is pure observation: attaching it must not change any
    simulated time (golden-digest equivalence, ISSUE acceptance)."""
    from repro.experiments.common import (
        ExperimentConfig,
        model_trace,
        run_trace_mode,
    )

    config = ExperimentConfig(scale=256, iterations=1)
    trace = model_trace("tiny", config)
    plain = run_trace_mode(trace, "CA:LM", config)
    monitored = run_trace_mode(
        trace, "CA:LM", replace(config, monitor=True)
    )
    assert monitored.iteration.seconds == plain.iteration.seconds
    assert monitored.monitor is not None
    assert monitored.monitor.events_seen > 0
    assert monitored.monitor.totals["copies"] > 0


def test_session_monitor_binds_capacities():
    from repro.experiments.common import (
        ExperimentConfig,
        model_trace,
        run_trace_mode,
    )

    config = ExperimentConfig(scale=256, iterations=1, monitor=True)
    result = run_trace_mode(model_trace("tiny", config), "CA:LM", config)
    monitor = result.monitor
    assert set(monitor.capacities) == {"DRAM", "NVRAM"}
    snapshot = monitor.snapshot(recent_windows=4)
    assert snapshot.occupancy["DRAM"]["capacity"] > 0
    assert snapshot.recent_windows  # inlined rollups for the dashboard
    assert "health:" in snapshot.render()


def monitor_state(monitor):
    """Everything a monitor holds that a live run and its replay must agree
    on: the snapshot with every retained window, the folded totals, the
    ring, the three latency sketches and the per-cause copy maps."""
    sketches = (
        monitor.kernel_latency, monitor.stall_latency, monitor.copy_latency
    )
    return {
        "snapshot": monitor.snapshot(recent_windows=1 << 20).to_json(),
        "folded": monitor.rollups.folded.to_json(),
        "ring": [
            entry.to_json() for entry in monitor.ring.snapshot()
        ] + [monitor.ring.total],
        "sketches": [
            [getattr(sketch, slot) for slot in QuantileSketch.__slots__]
            for sketch in sketches
        ],
        "copies_by_cause": monitor.copies_by_cause,
        "copy_seconds_by_cause": monitor.copy_seconds_by_cause,
    }


def test_offline_replay_matches_live_monitoring():
    """Replaying the recorded stream produces the whole state the live
    MonitorTracer built — the `repro monitor trace.jsonl` contract. The live
    run folds at each typed call, the replay re-reads every event through
    ``observe``; both land on the same state, sync and async."""
    from repro.experiments.common import (
        ExperimentConfig,
        model_trace,
        run_trace_mode,
    )

    for async_movement in (False, True):
        config = ExperimentConfig(
            scale=256,
            iterations=1,
            tracing=True,
            monitor=True,
            async_movement=async_movement,
            monitor_config=MonitorConfig(window_seconds=0.01),
        )
        result = run_trace_mode(model_trace("tiny", config), "CA:LM", config)
        live = result.monitor
        replayed = RuntimeMonitor(config.monitor_config)
        replayed.bind_capacities(live.capacities)
        replayed.bind_quotas(live.quotas)
        # The live run's alerts are in its trace; the replay raises its own.
        replayed.observe_all(e for e in result.run.trace if e.kind != ALERT)
        replayed.finish()
        assert live.rollups.windows_closed > 1
        assert monitor_state(replayed) == monitor_state(live), async_movement
        assert live._inflight == {} and replayed._inflight == {}

"""The movement-bottleneck classifier: exact algebra, both telemetry tiers.

Unit-level contracts over hand-built event streams (every second placed by
hand, so the expected decomposition is computable on paper), plus
integration checks that run the new movement-signature workloads traced and
confirm the ledger and monitor evidence the taxonomy report leans on.
"""

import pytest

from repro.experiments.common import COPY_OVERHEAD, ExperimentConfig, run_trace_mode
from repro.telemetry.ledger import build_ledger
from repro.sim.clock import SimClock
from repro.telemetry.monitor import MonitorConfig, MonitorTracer, RuntimeMonitor
from repro.telemetry.taxonomy import (
    CAPACITY_KINDS,
    CLASSES,
    CostModel,
    Decomposition,
    classify_monitor,
    classify_trace,
    movement_intensity,
)
from repro.telemetry.trace import COPY_START, GC, KERNEL_END, STALL, TraceEvent
from repro.workloads.signatures import pointer_chase_trace, tiny_objects_trace

COST = CostModel(
    launch_overhead=0.002,
    per_transfer_overhead=0.005,
    setup_latency={"DRAM": 1e-6, "NVRAM": 3e-6},
)


def ev(ts, kind, cause="", root="", **args):
    return TraceEvent(ts, kind, args, cause, root, None, "")


def kernel(ts, seconds, compute, memory=0.0, fixed=0.0, phase="fwd"):
    return ev(
        ts, KERNEL_END, seconds=seconds, compute=compute, memory=memory,
        fixed=fixed, phase=phase,
    )


def copy(ts, seconds, nbytes, cause="place:x", src="NVRAM", dst="DRAM"):
    return ev(
        ts, COPY_START, cause=cause, root=cause,
        seconds=seconds, nbytes=nbytes, src=src, dst=dst,
    )


class TestCostModel:
    def test_from_config_matches_the_simulators_constants(self):
        config = ExperimentConfig(scale=16)
        cost = CostModel.from_config(config)
        params = config.scaled_params()
        assert cost.launch_overhead == params.launch_overhead
        assert cost.per_transfer_overhead == COPY_OVERHEAD / 16
        dram = config.build_dram()
        nvram = config.build_nvram()
        assert cost.setup_latency[dram.name] == dram.bandwidth.setup_latency
        assert cost.setup_latency[nvram.name] == nvram.bandwidth.setup_latency

    def test_copy_fixed_sums_both_endpoints_plus_engine_overhead(self):
        assert COST.copy_fixed("DRAM", "NVRAM", 100) == pytest.approx(
            1e-6 + 3e-6 + 0.005
        )
        assert COST.copy_fixed("DRAM", "NVRAM", 0) == 0.0
        # Unknown device names cost nothing rather than raising.
        assert COST.copy_fixed("???", "NVRAM", 1) == pytest.approx(3e-6 + 0.005)

    def test_default_copy_fixed_assumes_one_endpoint_per_device(self):
        assert COST.default_copy_fixed == pytest.approx(1e-6 + 3e-6 + 0.005)


class TestDecomposition:
    def test_fractions_sum_to_one(self):
        d = Decomposition(compute=1.0, bandwidth=2.0, latency=3.0, capacity=4.0)
        assert sum(d.fractions().values()) == pytest.approx(1.0)
        assert d.total == pytest.approx(10.0)

    def test_dominant_prefers_earlier_class_on_ties(self):
        d = Decomposition(compute=1.0, bandwidth=1.0)
        assert d.dominant == "compute"
        assert Decomposition(bandwidth=1.0, latency=1.0).dominant == "bandwidth"

    def test_empty_decomposition_is_fully_attributed(self):
        d = Decomposition()
        assert d.attributed_fraction == 1.0
        assert all(v == 0.0 for v in d.fractions().values())


class TestKernelAlgebra:
    def test_flop_heavy_kernel_is_compute(self):
        # seconds == compute: no exposed memory; launch goes to latency.
        t = classify_trace([kernel(1.0, seconds=1.0, compute=1.0)], COST)
        d = t.decomposition
        assert d.compute == pytest.approx(1.0 - COST.launch_overhead)
        assert d.latency == pytest.approx(COST.launch_overhead)
        assert d.bandwidth == 0.0
        assert t.verdict == "compute"

    def test_exposed_memory_splits_by_fixed_share(self):
        # 1s of memory service of which 0.25 is per-operand setup; compute
        # covers launch only, so exposed = 1.0 exactly.
        t = classify_trace(
            [kernel(1.0, seconds=1.002, compute=0.002, memory=1.0, fixed=0.25)],
            COST,
        )
        d = t.decomposition
        assert d.bandwidth == pytest.approx(0.75)
        assert d.latency == pytest.approx(0.25 + COST.launch_overhead)
        assert d.compute == pytest.approx(0.0)
        assert d.total == pytest.approx(1.002)

    def test_fractions_sum_exactly_even_with_all_event_kinds(self):
        events = [
            kernel(1.0, seconds=1.0, compute=0.4, memory=0.7, fixed=0.1),
            copy(1.5, seconds=0.3, nbytes=1 << 20),
            copy(1.6, seconds=0.2, nbytes=1 << 20, cause="evict:a"),
            ev(1.7, STALL, seconds=0.1),
            ev(1.8, GC, seconds=0.05),
            kernel(2.65, seconds=0.5, compute=0.5),
        ]
        t = classify_trace(events, COST)
        assert sum(t.decomposition.fractions().values()) == pytest.approx(1.0)
        assert t.decomposition.total == pytest.approx(t.wall_seconds)
        assert t.decomposition.unattributed == 0.0


class TestCopyClassification:
    def test_demand_copy_splits_fixed_then_bandwidth(self):
        # Wall 1.0 = kernel 0.5 + copy 0.5 -> movement factor is exactly 1.
        events = [
            kernel(0.5, seconds=0.5, compute=0.5),
            copy(1.0, seconds=0.5, nbytes=1 << 30),
        ]
        t = classify_trace(events, COST)
        fixed = COST.copy_fixed("NVRAM", "DRAM", 1 << 30)
        assert t.decomposition.latency == pytest.approx(
            COST.launch_overhead + fixed
        )
        assert t.decomposition.bandwidth == pytest.approx(0.5 - fixed)
        assert t.decomposition.capacity == 0.0

    def test_capacity_mechanism_copies_classify_whole(self):
        for kind in ("evict", "gc", "recover", "pressure", "iter_end"):
            assert kind in CAPACITY_KINDS
        events = [
            kernel(0.5, seconds=0.5, compute=0.5),
            copy(1.0, seconds=0.5, nbytes=1 << 30, cause="evict:victim"),
        ]
        t = classify_trace(events, COST)
        assert t.decomposition.capacity == pytest.approx(0.5)
        assert t.decomposition.bandwidth == 0.0

    def test_innermost_cause_wins_over_the_root_scope(self):
        # An eviction that runs nested inside a placement root is still
        # capacity work: classification keys on event.cause, not event.root.
        event = TraceEvent(
            1.0, COPY_START,
            {"seconds": 0.5, "nbytes": 1 << 30, "src": "DRAM", "dst": "NVRAM"},
            "evict:victim", "place:incoming", None, "",
        )
        t = classify_trace([kernel(0.5, seconds=0.5, compute=0.5), event], COST)
        assert t.decomposition.capacity == pytest.approx(0.5)
        [cause] = t.causes
        assert cause.kind == "evict"
        assert cause.klass == "capacity"

    def test_stalls_follow_the_copy_class_mix(self):
        # Copies are 75% capacity / 25% demand by seconds; a stall splits
        # the same way. Wall: kernel 1.0 + copies 0.4 + stall 0.4 = 1.8.
        events = [
            kernel(1.0, seconds=1.0, compute=1.0),
            copy(1.2, seconds=0.3, nbytes=1 << 30, cause="evict:v"),
            copy(1.4, seconds=0.1, nbytes=0),
            ev(1.5, STALL, seconds=0.4),
            kernel(1.8, seconds=0.0, compute=0.0),
        ]
        t = classify_trace(events, COST)
        assert t.decomposition.capacity == pytest.approx(0.3 + 0.4 * 0.75)
        # nbytes=0 demand copy has zero fixed cost: all bandwidth.
        assert t.decomposition.bandwidth == pytest.approx(0.1 + 0.4 * 0.25)

    def test_async_copies_rescale_onto_the_exposed_residual(self):
        # Raw copy seconds (1.0) exceed the wall residual (0.5): the copies
        # overlapped, so their class seconds shrink by the 0.5 factor.
        events = [
            kernel(1.0, seconds=1.0, compute=1.0),
            copy(1.2, seconds=1.0, nbytes=1 << 30, cause="evict:v"),
            kernel(1.5, seconds=0.0, compute=0.0),
        ]
        t = classify_trace(events, COST)
        assert t.decomposition.capacity == pytest.approx(0.5)
        assert t.decomposition.total == pytest.approx(1.5)

    def test_zero_copy_residual_is_honestly_unattributed(self):
        # 0.5s of wall the kernels do not cover and no copies to carry it.
        events = [kernel(1.5, seconds=1.0, compute=1.0)]
        t = classify_trace(events, COST)
        assert t.decomposition.unattributed == pytest.approx(0.5)
        assert t.decomposition.attributed_fraction == pytest.approx(1.0 - 0.5 / 1.5)


class TestPhasesAndWindows:
    def test_copies_land_in_the_next_kernels_phase(self):
        events = [
            copy(0.4, seconds=0.4, nbytes=1 << 30, cause="evict:v"),
            kernel(1.4, seconds=1.0, compute=1.0, phase="fwd"),
            copy(1.5, seconds=0.1, nbytes=1 << 30, cause="evict:v"),
        ]
        t = classify_trace(events, COST)
        assert set(t.phases) == {"fwd", "(drain)"}
        assert t.phases["fwd"].capacity == pytest.approx(0.4)
        assert t.phases["(drain)"].capacity == pytest.approx(0.1)

    def test_phase_decompositions_partition_the_run_total(self):
        events = [
            kernel(1.0, seconds=1.0, compute=0.5, memory=0.6, fixed=0.1, phase="a"),
            copy(1.3, seconds=0.3, nbytes=1 << 30),
            kernel(2.3, seconds=0.7, compute=0.7, phase="b"),
            ev(2.4, GC, seconds=0.1),
        ]
        t = classify_trace(events, COST)
        phase_total = sum(d.total for d in t.phases.values())
        assert phase_total == pytest.approx(t.decomposition.total)

    def test_missing_phase_buckets_as_unphased(self):
        t = classify_trace([ev(1.0, KERNEL_END, seconds=1.0, compute=1.0)], COST)
        assert set(t.phases) == {"(unphased)"}

    def test_windows_partition_time_and_the_total(self):
        events = [
            kernel(0.5, seconds=0.5, compute=0.5),
            copy(1.5, seconds=0.5, nbytes=1 << 30, cause="evict:v"),
            kernel(2.5, seconds=0.5, compute=0.5),
        ]
        t = classify_trace(events, COST, window_seconds=1.0)
        assert [w.index for w in t.windows] == [0, 1, 2]
        assert [w.start for w in t.windows] == [0.0, 1.0, 2.0]
        window_total = sum(w.decomposition.total for w in t.windows)
        assert window_total == pytest.approx(t.decomposition.total)

    def test_no_window_seconds_means_no_windows(self):
        t = classify_trace([kernel(1.0, seconds=1.0, compute=1.0)], COST)
        assert t.windows == ()


class TestMonitorTier:
    def test_monitor_matches_trace_exactly_for_cross_tier_copies(self):
        # DRAM<->NVRAM copies are the case default_copy_fixed models
        # exactly, so the two tiers must produce identical class seconds.
        events = [
            kernel(1.0, seconds=1.0, compute=0.4, memory=0.7, fixed=0.1),
            copy(1.5, seconds=0.5, nbytes=1 << 30),
            copy(1.8, seconds=0.3, nbytes=1 << 30, cause="evict:v"),
            ev(1.9, STALL, seconds=0.2),
        ]
        from_trace = classify_trace(events, COST)
        # The same run through a monitor's typed calls (no records kept).
        monitor = RuntimeMonitor(MonitorConfig(rules=()))
        clock = SimClock()
        tracer = MonitorTracer(clock, monitor)
        clock.advance(1.0)
        tracer.kernel_end("k", 1.0, 0.4, 0.7, 0.1, "fwd")
        tracer.copy("NVRAM", "DRAM", 1 << 30, 1, 0.5, 1.5, 0)
        with tracer.scope("evict", "v"):
            tracer.copy("DRAM", "NVRAM", 1 << 30, 1, 0.3, 1.8, 1)
        clock.advance(0.9)
        tracer.stall("k", 0.2)
        from_monitor = classify_monitor(monitor, COST)
        assert from_monitor.source == "monitor"
        assert from_monitor.verdict == from_trace.verdict
        for name in CLASSES:
            assert getattr(from_monitor.decomposition, name) == pytest.approx(
                getattr(from_trace.decomposition, name)
            )

    def test_monitor_gc_counts_as_capacity(self):
        monitor = RuntimeMonitor(MonitorConfig(rules=()))
        clock = SimClock()
        tracer = MonitorTracer(clock, monitor)
        clock.advance(1.0)
        tracer.kernel_end("k", 1.0, 1.0, 0.0, 0.0, "fwd")
        clock.advance(0.2)
        tracer.gc(0.2)
        t = classify_monitor(monitor, COST)
        assert t.decomposition.capacity == pytest.approx(0.2)
        assert t.gc_seconds == pytest.approx(0.2)


class TestOnRealWorkloads:
    """Integration: the new signature traces, run traced, end to end."""

    @pytest.fixture(scope="class")
    def tiny_run(self):
        config = ExperimentConfig(
            scale=2048, iterations=2, tracing=True, monitor=True,
            monitor_config=MonitorConfig(rules=()),
        )
        trace = tiny_objects_trace().scaled(2048)
        return run_trace_mode(trace, "CA:LM", config), config

    def test_tiny_objects_is_capacity_bound_under_eviction_policies(self, tiny_run):
        result, config = tiny_run
        t = classify_trace(result.run.trace, CostModel.from_config(config))
        assert t.verdict == "capacity"
        assert t.decomposition.unattributed == 0.0
        kinds = {c.kind for c in t.causes}
        assert "evict" in kinds

    def test_monitor_copy_cause_rollups_see_the_evictions(self, tiny_run):
        result, _ = tiny_run
        monitor = result.monitor
        assert monitor is not None
        assert monitor.copies_by_cause.get("evict", 0) > 0
        assert monitor.copy_seconds_by_cause["evict"] > 0.0
        # Counts and seconds agree with the grand totals.
        assert sum(monitor.copies_by_cause.values()) == monitor.totals["copies"]
        assert sum(monitor.copy_seconds_by_cause.values()) == pytest.approx(
            monitor.totals["copy_seconds"]
        )

    def test_ledger_movement_ratio_on_the_tiny_object_pool(self, tiny_run):
        result, _ = tiny_run
        ledger = build_ledger(result.run.trace)
        intensity = movement_intensity(ledger)
        assert intensity is not None and intensity > 0.0
        moved = [h for h in ledger.objects.values() if h.bytes_moved > 0]
        assert moved, "eviction pressure must move some pool objects"
        for history in moved:
            if history.bytes_used > 0:
                assert history.movement_ratio == pytest.approx(
                    history.bytes_moved / history.bytes_used
                )
        # top_moved ranks by bytes_moved descending.
        top = ledger.top_moved(5)
        assert [h.bytes_moved for h in top] == sorted(
            (h.bytes_moved for h in top), reverse=True
        )

    def test_pointer_chase_moves_nothing_and_ping_pongs_nothing(self):
        config = ExperimentConfig(scale=2048, iterations=2, tracing=True)
        trace = pointer_chase_trace().scaled(2048)
        result = run_trace_mode(trace, "CA:LM", config)
        ledger = build_ledger(result.run.trace)
        assert ledger.ping_pongs() == []
        assert movement_intensity(ledger) == pytest.approx(0.0)
        t = classify_trace(result.run.trace, CostModel.from_config(config))
        assert t.verdict == "latency"

"""Asynchronous data movement (Section VI / Figure 7's projection, built).

The async copy engine queues copies on one DMA channel per destination
device; kernels stall only when they touch a region whose inbound copy has
not completed, and iterations drain the channels before ending.
"""

import pytest

from dataclasses import replace

from repro.core.session import Session, SessionConfig
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig, run_trace_mode
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.policies.optimizing import OptimizingPolicy
from repro.sim.clock import SimClock
from repro.telemetry.trace import Tracer
from repro.units import GB, KiB, MiB
from repro.workloads.annotate import annotate
from repro.workloads.synthetic import filo_stack_trace


def heap_pair():
    return Heap(MemoryDevice.dram(4 * MiB)), Heap(MemoryDevice.nvram(16 * MiB))


class TestEngineAsyncMode:
    def test_async_copy_does_not_advance_clock(self):
        clock = SimClock()
        engine = CopyEngine(clock, async_mode=True)
        dram, nvram = heap_pair()
        record = engine.copy(dram, 0, nvram, 0, MiB)
        assert clock.now == 0.0
        assert record.completes_at == pytest.approx(record.seconds)

    def test_same_destination_serialises(self):
        engine = CopyEngine(SimClock(), async_mode=True)
        dram, nvram = heap_pair()
        first = engine.copy(dram, 0, nvram, 0, MiB)
        second = engine.copy(dram, 0, nvram, MiB, MiB)
        assert second.completes_at == pytest.approx(
            first.completes_at + second.seconds
        )

    def test_different_destinations_run_in_parallel(self):
        engine = CopyEngine(SimClock(), async_mode=True)
        dram, nvram = heap_pair()
        evict = engine.copy(dram, 0, nvram, 0, MiB)
        promote = engine.copy(nvram, 0, dram, 0, MiB)
        # The promotion is not queued behind the eviction.
        assert promote.completes_at == pytest.approx(promote.seconds)
        assert evict.completes_at > 0

    def test_drain_wait(self):
        clock = SimClock()
        engine = CopyEngine(clock, async_mode=True)
        dram, nvram = heap_pair()
        record = engine.copy(dram, 0, nvram, 0, MiB)
        assert engine.drain_wait() == pytest.approx(record.completes_at)
        clock.advance(record.completes_at + 1.0)
        assert engine.drain_wait() == 0.0

    def test_sync_copy_completes_immediately(self):
        clock = SimClock()
        engine = CopyEngine(clock)
        dram, nvram = heap_pair()
        record = engine.copy(dram, 0, nvram, 0, MiB)
        assert record.completes_at == pytest.approx(clock.now)
        assert engine.drain_wait() == 0.0

    def test_async_rejects_real_devices(self):
        """On every call: the check runs before a pair's plan exists, so a
        refused pair never gets one, and no call moves the clock, either
        heap's counters, the copy sequence or the trace."""
        clock = SimClock()
        tracer = Tracer(clock)
        engine = CopyEngine(clock, async_mode=True, tracer=tracer)
        real = Heap(MemoryDevice.dram(MiB, real=True))
        other = Heap(MemoryDevice.nvram(MiB, real=True))

        def state():
            return (
                clock.now, dict(clock.categories()),
                [(h.traffic.read_bytes, h.traffic.write_bytes) for h in (real, other)],
                engine._copy_seq, dict(engine._channel_free_at), len(tracer.events),
            )

        before = state()
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                engine.copy(real, 0, other, 0, KiB)
            assert state() == before


class TestSessionIntegration:
    def test_session_flag_builds_async_engine(self):
        session = Session(
            SessionConfig(dram=MiB, nvram=8 * MiB, async_movement=True)
        )
        assert session.engine.async_mode
        session.close()

    def test_real_session_rejects_async(self):
        with pytest.raises(ConfigurationError):
            Session(
                SessionConfig(dram=MiB, nvram=8 * MiB, real=True, async_movement=True)
            )

    def test_copyto_records_readiness(self):
        session = Session(
            SessionConfig(dram=MiB, nvram=8 * MiB, async_movement=True),
            policy=OptimizingPolicy(local_alloc=True),
        )
        src = session.manager.allocate("DRAM", 256 * KiB)
        dst = session.manager.allocate("NVRAM", 256 * KiB)
        session.manager.copyto(dst, src)
        assert dst.ready_at > session.clock.now
        session.close()


class TestExecutorIntegration:
    def _run(self, *, async_movement: bool, budget_gb: int = 45):
        raw = filo_stack_trace(depth=24, activation_bytes=4 * MiB)
        config = ExperimentConfig(
            scale=1,
            iterations=2,
            dram_bytes=32 * MiB,
            nvram_bytes=GB,
            sample_timeline=False,
            async_movement=async_movement,
        )
        trace = annotate(raw, memopt=True)
        return run_trace_mode(trace, "CA:LM", config, model_label="filo").iteration

    def test_async_never_slower_than_sync(self):
        sync = self._run(async_movement=False)
        asynchronous = self._run(async_movement=True)
        assert asynchronous.seconds <= sync.seconds * 1.01

    def test_async_at_least_projection_floor(self):
        """No async schedule can beat the compute-only floor."""
        asynchronous = self._run(async_movement=True)
        assert asynchronous.seconds >= asynchronous.compute_seconds

    def test_iterations_drain_before_ending(self):
        asynchronous = self._run(async_movement=True)
        # Post-drain, the second iteration matches the first (steady state).
        assert asynchronous.seconds > 0

    def test_traffic_identical_between_modes(self):
        """Asynchrony changes timing, never the bytes moved."""
        sync = self._run(async_movement=False)
        asynchronous = self._run(async_movement=True)
        for device in sync.traffic:
            assert (
                sync.traffic[device].total_bytes
                == asynchronous.traffic[device].total_bytes
            )


class TestLookaheadHints:
    def test_lookahead_emits_early_willreads(self):
        from repro.workloads.trace import Kernel, WillRead

        raw = filo_stack_trace(depth=6)
        annotated = annotate(raw, memopt=True, lookahead=2)
        events = annotated.events
        hints = [i for i, e in enumerate(events) if isinstance(e, WillRead)]
        assert hints
        # Each hinted tensor is read by some kernel strictly later.
        for index in hints:
            name = events[index].tensor
            assert any(
                isinstance(e, Kernel) and name in e.reads
                for e in events[index + 1 :]
            )

    def test_lookahead_trace_still_validates(self):
        raw = filo_stack_trace(depth=8)
        annotate(raw, memopt=True, lookahead=4).validate()
        annotate(raw, memopt=False, lookahead=16).validate()

    def test_lookahead_zero_adds_nothing(self):
        from repro.workloads.trace import WillRead

        raw = filo_stack_trace(depth=4)
        annotated = annotate(raw, memopt=True, lookahead=0)
        assert not any(isinstance(e, WillRead) for e in annotated.events)

    def test_executor_consumes_hint_events(self):
        raw = filo_stack_trace(depth=8, activation_bytes=MiB)
        config = ExperimentConfig(
            scale=1,
            iterations=1,
            dram_bytes=8 * MiB,
            nvram_bytes=256 * MiB,
            sample_timeline=False,
        )
        trace = annotate(raw, memopt=True, lookahead=4)
        result = run_trace_mode(trace, "CA:LMP", config, model_label="filo")
        assert result.iteration.policy_stats["prefetches"] >= 0  # ran cleanly


class TestResidueClamping:
    """Float-drift residues must not surface as denormal-length stalls."""

    def test_drain_wait_clamps_tiny_residue(self):
        clock = SimClock()
        engine = CopyEngine(clock, async_mode=True)
        dram, nvram = heap_pair()
        record = engine.copy(dram, 0, nvram, 0, MiB)
        # Land the clock a few ULPs *past* the completion time the way an
        # accumulated advance would: the leftover must read as zero, not as
        # a negative or denormal wait.
        clock.advance(record.completes_at * (1 + 1e-15))
        assert engine.drain_wait() == 0.0

    def test_drain_wait_clamps_tiny_positive_remainder(self):
        clock = SimClock()
        engine = CopyEngine(clock, async_mode=True)
        dram, nvram = heap_pair()
        record = engine.copy(dram, 0, nvram, 0, MiB)
        clock.advance(record.completes_at * (1 - 1e-15))
        assert engine.drain_wait() == 0.0

    def test_genuine_drain_survives(self):
        clock = SimClock()
        engine = CopyEngine(clock, async_mode=True)
        dram, nvram = heap_pair()
        record = engine.copy(dram, 0, nvram, 0, MiB)
        clock.advance(record.completes_at / 2)
        assert engine.drain_wait() == pytest.approx(record.completes_at / 2)


class TestCompletesAt:
    def test_copy_record_requires_completion_time(self):
        from repro.memory.copyengine import CopyRecord

        # completes_at is always populated by the engine; a record without
        # one is a bug, so the field deliberately has no default.
        with pytest.raises(TypeError):
            CopyRecord("DRAM", "NVRAM", MiB, 1, 0.5, False)

    def test_sync_records_complete_now(self):
        clock = SimClock()
        clock.advance(3.0)
        engine = CopyEngine(clock)
        dram, nvram = heap_pair()
        record = engine.copy(dram, 0, nvram, 0, MiB)
        assert record.completes_at == pytest.approx(clock.now)

    def test_async_records_complete_at_channel_time(self):
        clock = SimClock()
        engine = CopyEngine(clock, async_mode=True)
        dram, nvram = heap_pair()
        first = engine.copy(dram, 0, nvram, 0, MiB)
        second = engine.copy(dram, 0, nvram, MiB, MiB)
        assert first.completes_at == pytest.approx(first.seconds)
        assert second.completes_at == pytest.approx(
            first.completes_at + second.seconds
        )
        assert second.completes_at > clock.now


class TestIterEndDrainAccounting:
    """iteration_end charges MOVEMENT_WAIT exactly once per drained wait."""

    def run_filo(self, *, async_movement, tracing=True, dram=4 * MiB):
        from repro.runtime.executor import CachedArraysAdapter, Executor
        from repro.runtime.kernel import ExecutionParams

        session = Session(
            SessionConfig(
                devices=[MemoryDevice.dram(dram), MemoryDevice.nvram(64 * MiB)],
                async_movement=async_movement,
                tracing=tracing,
            ),
            policy=OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True),
        )
        trace = annotate(
            filo_stack_trace(
                depth=6, activation_bytes=MiB, weight_bytes=MiB // 4
            ),
            memopt=True,
        )
        executor = Executor(CachedArraysAdapter(session, ExecutionParams()))
        run = executor.run(trace, iterations=2)
        return session, run

    def movement_wait(self, session):
        from repro.sim.clock import SimClock  # noqa: F401 - category names

        return session.clock.busy("movement_wait")

    def test_sync_mode_never_waits(self):
        session, _ = self.run_filo(async_movement=False)
        assert self.movement_wait(session) == 0.0

    def test_zero_queued_copies_zero_drain(self):
        # Everything fits in DRAM: no movement, so no drain stall at all.
        session, _ = self.run_filo(async_movement=True, dram=64 * MiB)
        assert self.movement_wait(session) == 0.0
        stalls = [e for e in session.tracer.events if e.kind == "stall"]
        assert stalls == []

    def test_wait_charged_exactly_matches_traced_stalls(self):
        # Every second of MOVEMENT_WAIT on the clock is accounted for by
        # exactly one traced stall event (kernel-entry or iter_end_drain):
        # double-charging would make the sums diverge.
        session, _ = self.run_filo(async_movement=True)
        stalls = [e for e in session.tracer.events if e.kind == "stall"]
        total = sum(e.args["seconds"] for e in stalls)
        assert self.movement_wait(session) == pytest.approx(total)

    def test_at_most_one_drain_stall_per_iteration(self):
        session, run = self.run_filo(async_movement=True)
        drains = [
            e
            for e in session.tracer.events
            if e.kind == "stall" and e.args.get("kernel") == "iter_end_drain"
        ]
        assert len(drains) <= len(run.iterations)

    def test_drain_survives_mid_run_recovery(self):
        # A DRAM small enough to force the OOM recovery ladder mid-run must
        # still keep the invariant: waits on the clock == waits traced.
        session, _ = self.run_filo(async_movement=True, dram=2 * MiB)
        stalls = [e for e in session.tracer.events if e.kind == "stall"]
        total = sum(e.args["seconds"] for e in stalls)
        assert self.movement_wait(session) == pytest.approx(total)

"""Analytic cross-checks: closed-form expectations vs the simulator.

For carefully chosen configurations the exact traffic and timing are
computable by hand; these tests pin the simulator to those formulas, giving
an independent check that the accounting machinery (not just its internal
consistency) is right.
"""

import pytest

from repro.core.session import Session, SessionConfig
from repro.memory.device import MemoryDevice
from repro.policies import OptimizingPolicy, SingleDevicePolicy
from repro.runtime.executor import CachedArraysAdapter, Executor, TwoLMAdapter
from repro.runtime.kernel import ExecutionParams
from repro.sim.bandwidth import TransferKind
from repro.twolm.system import TwoLMSystem
from repro.units import KiB, MiB
from repro.workloads.annotate import annotate
from repro.workloads.synthetic import streaming_trace
from repro.workloads.trace import Kernel

PARAMS = ExecutionParams(launch_overhead=0.0)


class TestKernelTrafficExact:
    def test_single_device_traffic_equals_operand_bytes(self):
        """On one device with no movement, kernel traffic is exactly the sum
        of operand sizes (read_factor = 1)."""
        stages, size = 10, 256 * KiB
        trace = annotate(
            streaming_trace(stages=stages, tensor_bytes=size), memopt=True
        )
        session = Session(
            SessionConfig(dram=None, nvram=64 * MiB),
            policy=SingleDevicePolicy("NVRAM"),
        )
        executor = Executor(
            CachedArraysAdapter(session, PARAMS), sample_timeline=False
        )
        iteration = executor.run(trace).iterations[0]
        snap = iteration.traffic["NVRAM"]
        assert snap.read_bytes == stages * size
        assert snap.write_bytes == stages * size
        session.close()

    def test_read_factor_scales_traffic_linearly(self):
        trace = annotate(streaming_trace(stages=4, tensor_bytes=64 * KiB), memopt=True)
        doubled = trace.with_events(
            [
                e if not isinstance(e, Kernel) else Kernel(
                    name=e.name, reads=e.reads, writes=e.writes, flops=e.flops,
                    phase=e.phase, read_factor=2.0,
                )
                for e in trace.events
            ],
            "x2",
        )
        reads = {}
        for label, t in (("x1", trace), ("x2", doubled)):
            session = Session(
                SessionConfig(dram=None, nvram=64 * MiB),
                policy=SingleDevicePolicy("NVRAM"),
            )
            executor = Executor(
                CachedArraysAdapter(session, PARAMS), sample_timeline=False
            )
            reads[label] = executor.run(t).iterations[0].traffic["NVRAM"].read_bytes
            session.close()
        assert reads["x2"] == 2 * reads["x1"]


class TestMovementExact:
    def test_spill_volume_matches_capacity_deficit(self):
        """A FILO stack that exceeds DRAM by exactly K bytes must write at
        least K (and at most the whole stack) to NVRAM."""
        from repro.workloads.synthetic import filo_stack_trace

        activation = 256 * KiB
        depth = 16
        dram = 8 * activation  # holds half the activations
        trace = annotate(
            filo_stack_trace(
                depth=depth, activation_bytes=activation, weight_bytes=KiB
            ),
            memopt=True,
        )
        session = Session(
            SessionConfig(dram=int(dram * 1.2), nvram=64 * MiB),
            policy=OptimizingPolicy(local_alloc=True),
        )
        executor = Executor(
            CachedArraysAdapter(session, PARAMS), sample_timeline=False
        )
        iteration = executor.run(trace).iterations[0]
        written = iteration.traffic["NVRAM"].write_bytes
        peak = trace.peak_live_bytes()
        deficit = peak - int(dram * 1.2)
        assert written >= deficit * 0.8  # must spill roughly the deficit
        assert written <= peak  # cannot spill more than ever lived
        session.close()

    def test_copy_time_formula(self):
        """engine.copy duration == bytes / harmonic(src_read, dst_write_nt)."""
        from repro.memory.copyengine import CopyEngine
        from repro.memory.heap import Heap
        from repro.sim.clock import SimClock

        dram = Heap(MemoryDevice.dram(4 * MiB))
        nvram = Heap(MemoryDevice.nvram(16 * MiB))
        engine = CopyEngine(SimClock())
        nbytes = 2 * MiB
        record = engine.copy(dram, 0, nvram, 0, nbytes)
        read_bw = nbytes / dram.device.bandwidth.transfer_time(
            TransferKind.READ, nbytes, record.threads
        )
        write_bw = nbytes / nvram.device.bandwidth.transfer_time(
            TransferKind.WRITE_NT, nbytes, record.threads
        )
        expected = nbytes / (1.0 / (1.0 / read_bw + 1.0 / write_bw))
        assert record.seconds == pytest.approx(expected, rel=1e-9)


class Test2LMExact:
    def test_cold_sweep_compulsory_traffic(self):
        """First touch of F bytes through an empty cache: NVRAM reads == F
        (write-allocate fills), regardless of hit luck."""
        system = TwoLMSystem(
            MemoryDevice.dram(256 * KiB),
            MemoryDevice.nvram(16 * MiB),
            line_size=64,
        )
        footprint = 1 * MiB
        offset = system.allocate(footprint)
        system.access(offset, footprint, is_write=False)
        assert system.nvram_traffic.read_bytes == footprint
        assert system.nvram_traffic.write_bytes == 0  # clean fills only

    def test_dirty_working_set_conservation(self):
        """Writing W bytes then streaming an eviction-forcing sweep must
        write back exactly min(W, cache) dirty bytes."""
        cache = 256 * KiB
        system = TwoLMSystem(
            MemoryDevice.dram(cache),
            MemoryDevice.nvram(16 * MiB),
            line_size=64,
        )
        w = 512 * KiB  # twice the cache: self-evicts half while writing
        a = system.allocate(w)
        system.access(a, w, is_write=True)
        # Sweep a disjoint clean region larger than the cache: every still-
        # resident dirty line must wash out.
        b = system.allocate(2 * cache)
        system.access(b, 2 * cache, is_write=False)
        total_dirty_writebacks = system.nvram_traffic.write_bytes
        # Every one of the W dirty bytes is written back exactly once.
        assert total_dirty_writebacks == w
        assert system.cache.dirty_lines() == 0

    def test_hit_traffic_stays_in_dram(self):
        system = TwoLMSystem(
            MemoryDevice.dram(1 * MiB),
            MemoryDevice.nvram(16 * MiB),
            line_size=64,
        )
        offset = system.allocate(256 * KiB)
        system.access(offset, 256 * KiB, is_write=False)  # cold fill
        nvram_before = system.nvram_traffic.snapshot()
        for _ in range(3):
            system.access(offset, 256 * KiB, is_write=False)  # pure hits
        delta = system.nvram_traffic.snapshot() - nvram_before
        assert delta.total_bytes == 0


class TestGcExact:
    def test_deferred_bytes_stay_resident_until_collection(self):
        from repro.runtime.gc import GcConfig

        stages, size = 12, 128 * KiB
        trace = annotate(
            streaming_trace(stages=stages, tensor_bytes=size), memopt=False
        )
        session = Session(
            SessionConfig(dram=None, nvram=64 * MiB),
            policy=SingleDevicePolicy("NVRAM"),
        )
        executor = Executor(
            CachedArraysAdapter(session, PARAMS),
            gc_config=GcConfig(trigger_bytes=1 << 60),  # only end-of-iteration
            sample_timeline=True,
        )
        executor.run(trace)
        timeline = executor._timelines["NVRAM"]
        # Peak residency = every tensor alive at once (none freed mid-run);
        # allocations are 64-byte aligned so equality is exact.
        assert timeline.peak() == (stages + 1) * size
        assert timeline.last() == 0  # end-of-iteration GC swept everything
        session.close()

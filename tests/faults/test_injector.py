"""The FaultInjector: deterministic firing at each mechanism seam."""

import pytest

from repro.errors import OutOfMemoryError
from repro.faults.injector import FaultInjector, NO_COPY_FAULT
from repro.faults.plan import FaultPlan, FaultSpec, replay_plan
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.sim.clock import SimClock
from repro.telemetry import trace as tracing
from repro.telemetry.trace import Tracer
from repro.units import KiB, MiB


def make_injector(*specs, seed=0, clock=None, tracer=None):
    plan = FaultPlan("test", specs=tuple(specs), seed=seed)
    return FaultInjector(plan, clock=clock, tracer=tracer)


def test_alloc_fault_fires_on_matching_indices_only():
    injector = make_injector(FaultSpec(site="alloc", start=2, every=3, count=2))
    verdicts = [injector.alloc_fault("DRAM", 100, 1000) for _ in range(10)]
    assert verdicts == [None, None, "fail", None, None, "fail",
                        None, None, None, None]
    assert [fault.index for fault in injector.fired] == [2, 5]


def test_alloc_fault_filters_by_device():
    injector = make_injector(
        FaultSpec(site="alloc", device="DRAM", start=0, every=1, count=None)
    )
    assert injector.alloc_fault("NVRAM", 100, 1000) is None
    assert injector.alloc_fault("DRAM", 100, 1000) == "fail"


def test_fragmentation_is_sticky_until_defrag():
    injector = make_injector(
        FaultSpec(site="fragmentation", start=0, count=1, magnitude=4096)
    )
    # The fault activates on allocation index 0 and rejects large requests.
    assert injector.alloc_fault("DRAM", 8192, 64 * KiB) == "fragment"
    # Small allocations still succeed; the fault persists across calls.
    assert injector.alloc_fault("DRAM", 1024, 64 * KiB) is None
    assert injector.alloc_fault("DRAM", 8192, 64 * KiB) == "fragment"
    # Defragmentation clears it.
    assert injector.on_defragment("DRAM") is True
    assert injector.alloc_fault("DRAM", 8192, 64 * KiB) is None
    assert injector.on_defragment("DRAM") is False


def test_heap_defragment_notifies_injector():
    injector = make_injector(
        FaultSpec(site="fragmentation", start=0, count=1, magnitude=1024)
    )
    heap = Heap(MemoryDevice.dram(1 * MiB), injector=injector)
    heap.allocate(512)  # small enough to succeed; activates the fault
    with pytest.raises(OutOfMemoryError):
        heap.allocate(64 * KiB)  # over the fragmentation threshold
    heap.defragment()
    heap.allocate(64 * KiB)  # the fault is cleared: the same request fits


def test_copy_plan_aggregates_sites():
    injector = make_injector(
        FaultSpec(site="copy", start=0, every=1, count=None, magnitude=2),
        FaultSpec(site="bandwidth", start=0, every=1, count=None, magnitude=4.0),
    )
    fault = injector.copy_plan("DRAM", "NVRAM", 1024)
    assert fault.failures == 2
    assert fault.slowdown == 4.0
    assert fault.corrupt == 0
    assert not fault.clean


def test_copy_plan_clean_is_shared_sentinel():
    injector = make_injector(FaultSpec(site="copy", start=5, count=1))
    assert injector.copy_plan("DRAM", "NVRAM", 1024) is NO_COPY_FAULT


def test_copy_plan_filters_by_destination():
    injector = make_injector(
        FaultSpec(site="copy", device="NVRAM", start=0, every=1, count=None)
    )
    assert injector.copy_plan("NVRAM", "DRAM", 64).clean
    assert injector.copy_plan("DRAM", "NVRAM", 64).failures == 1


def test_policy_fault_filters_by_op():
    injector = make_injector(
        FaultSpec(site="policy", op="will_read", start=0, every=1, count=None)
    )
    assert injector.policy_fault("place", "a") is False
    assert injector.policy_fault("will_read", "a") is True


def test_probabilistic_plans_replay_identically():
    def run():
        injector = make_injector(
            FaultSpec(site="alloc", start=0, every=1, count=None,
                      probability=0.5),
            seed=42,
        )
        return [injector.alloc_fault("DRAM", 64, 1024) for _ in range(40)]

    assert run() == run()
    assert "fail" in run()  # p=0.5 over 40 draws: the seed makes this certain


def test_fired_faults_carry_virtual_time_and_trace_events():
    clock = SimClock()
    tracer = Tracer(clock)
    injector = make_injector(
        FaultSpec(site="alloc", start=1, count=1),
        clock=clock, tracer=tracer,
    )
    injector.alloc_fault("DRAM", 64, 1024)
    clock.advance(2.5, "movement")
    injector.alloc_fault("DRAM", 64, 1024)
    (fault,) = injector.fired
    assert fault.ts == 2.5
    (event,) = [e for e in tracer.events if e.kind == tracing.FAULT]
    assert event.ts == 2.5
    assert event.args["site"] == "alloc"


def test_replay_of_recorded_run_fires_same_faults():
    injector = make_injector(
        FaultSpec(site="alloc", start=0, every=1, count=None, probability=0.3),
        seed=99,
    )
    schedule = [injector.alloc_fault("DRAM", 64, 1024) for _ in range(30)]

    replayed = FaultInjector(replay_plan("replay", injector.fired))
    replay_schedule = [replayed.alloc_fault("DRAM", 64, 1024) for _ in range(30)]
    assert replay_schedule == schedule
    assert [f.index for f in replayed.fired] == [f.index for f in injector.fired]

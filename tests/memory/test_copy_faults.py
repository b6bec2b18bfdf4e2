"""Copy engine under fault injection: retries, verification, degradation."""

import numpy as np
import pytest

from repro.errors import CopyError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.sim.bandwidth import DegradedBandwidth, copy_time
from repro.sim.clock import SimClock
from repro.telemetry import trace as tracing
from repro.telemetry.trace import Tracer
from repro.units import KiB, MiB

NBYTES = 1 * MiB


def heap_pair(real=False):
    return (
        Heap(MemoryDevice.dram(4 * MiB, real=real)),
        Heap(MemoryDevice.nvram(16 * MiB, real=real)),
    )


def engine_with(*specs, real=False, seed=0):
    clock = SimClock()
    tracer = Tracer(clock)
    injector = FaultInjector(
        FaultPlan("copy-test", specs=tuple(specs), seed=seed),
        clock=clock,
        tracer=tracer,
    )
    engine = CopyEngine(clock, injector=injector, tracer=tracer)
    dram, nvram = heap_pair(real=real)
    return engine, dram, nvram, tracer


def clean_copy_seconds(real=False):
    clock = SimClock()
    engine = CopyEngine(clock)
    dram, nvram = heap_pair(real=real)
    src = dram.allocate(NBYTES)
    dst = nvram.allocate(NBYTES)
    return engine.copy(dram, src, nvram, dst, NBYTES).seconds


def exact(got, expected):
    """Equal to the last bit: a retried or derated copy's seconds are the
    clean attempt's arithmetic, not an approximation of it."""
    return float(got).hex() == float(expected).hex()


def retry_events(tracer, reason):
    return [
        e for e in tracer.events
        if e.kind == tracing.COPY_RETRY and e.args["reason"] == reason
    ]


def test_injected_failure_is_retried_and_fully_charged():
    engine, dram, nvram, tracer = engine_with(
        FaultSpec(site="copy", start=0, count=1)  # first copy fails once
    )
    src = dram.allocate(NBYTES)
    dst = nvram.allocate(NBYTES)
    record = engine.copy(dram, src, nvram, dst, NBYTES)
    # Two attempts: the failure and the successful retry, both charged.
    assert exact(record.seconds, 2 * clean_copy_seconds())
    assert dram.traffic.read_bytes == 2 * NBYTES
    assert nvram.traffic.write_bytes == 2 * NBYTES
    assert len(retry_events(tracer, "injected copy failure")) == 1
    # The next copy is clean: the fault budget is spent.
    record2 = engine.copy(dram, src, nvram, dst, NBYTES)
    assert exact(record2.seconds, clean_copy_seconds())


def test_failures_past_retry_budget_raise_typed_copy_error():
    engine, dram, nvram, tracer = engine_with(
        FaultSpec(site="copy", start=0, count=1, magnitude=99)
    )
    src = dram.allocate(NBYTES)
    dst = nvram.allocate(NBYTES)
    with pytest.raises(CopyError) as excinfo:
        engine.copy(dram, src, nvram, dst, NBYTES)
    assert excinfo.value.attempts == 3  # MAX_COPY_RETRIES=2 -> 3 attempts
    # Every failed attempt was honestly charged before the abort.
    assert dram.traffic.read_bytes == 3 * NBYTES
    assert len(retry_events(tracer, "injected copy failure")) == 3


def test_bandwidth_fault_derates_the_transfer():
    engine, dram, nvram, _ = engine_with(
        FaultSpec(site="bandwidth", start=0, every=1, count=None, magnitude=4.0)
    )
    src = dram.allocate(NBYTES)
    dst = nvram.allocate(NBYTES)
    record = engine.copy(dram, src, nvram, dst, NBYTES)
    clean = clean_copy_seconds()
    assert record.seconds > clean * 2  # materially slower
    # Exactly the copy priced over the destination's model derated 4x, at
    # the thread count tuned for the healthy pair.
    derated = DegradedBandwidth(inner=nvram.device.bandwidth, factor=4.0)
    assert exact(
        record.seconds,
        copy_time(dram.device.bandwidth, derated, NBYTES, record.threads),
    )
    # Same bytes, same accounting: degradation costs time, not traffic.
    assert nvram.traffic.write_bytes == NBYTES


def test_corruption_is_caught_by_verification_and_redone():
    engine, dram, nvram, tracer = engine_with(
        FaultSpec(site="copy_corrupt", start=0, count=1), real=True
    )
    payload = np.random.default_rng(7).integers(
        0, 256, size=NBYTES, dtype=np.uint8
    )
    src = dram.allocate(NBYTES)
    dst = nvram.allocate(NBYTES)
    dram.view(src, NBYTES)[:] = payload
    record = engine.copy(dram, src, nvram, dst, NBYTES)
    assert np.array_equal(nvram.view(dst, NBYTES), payload)  # healed
    assert len(retry_events(tracer, "verification mismatch")) == 1
    assert exact(record.seconds, 2 * clean_copy_seconds(real=True))
    assert nvram.traffic.write_bytes == 2 * NBYTES


def test_persistent_corruption_aborts_loudly_never_silently():
    engine, dram, nvram, _ = engine_with(
        FaultSpec(site="copy_corrupt", start=0, count=1, magnitude=99),
        real=True,
    )
    src = dram.allocate(NBYTES)
    dst = nvram.allocate(NBYTES)
    dram.view(src, NBYTES)[:] = 42
    with pytest.raises(CopyError) as excinfo:
        engine.copy(dram, src, nvram, dst, NBYTES)
    assert "verification mismatch" in str(excinfo.value)


def test_virtual_corruption_folds_into_the_retry_budget():
    """Virtual devices carry no payload; corruption becomes a timed retry."""
    engine, dram, nvram, tracer = engine_with(
        FaultSpec(site="copy_corrupt", start=0, count=1)
    )
    src = dram.allocate(NBYTES)
    dst = nvram.allocate(NBYTES)
    record = engine.copy(dram, src, nvram, dst, NBYTES)
    assert exact(record.seconds, 2 * clean_copy_seconds())
    assert len(retry_events(tracer, "injected copy failure")) == 1


def test_clean_copies_match_fault_free_engine_exactly():
    """An attached injector with no matching spec changes nothing."""
    engine, dram, nvram, tracer = engine_with(
        FaultSpec(site="copy", start=500, count=1)  # never reached
    )
    src = dram.allocate(NBYTES)
    dst = nvram.allocate(NBYTES)
    record = engine.copy(dram, src, nvram, dst, NBYTES)
    assert exact(record.seconds, clean_copy_seconds())
    assert dram.traffic.read_bytes == NBYTES
    assert not retry_events(tracer, "injected copy failure")


def test_real_pair_verification_runs_only_under_injection():
    """No injector: the engine never reads the destination back."""
    clock = SimClock()
    engine = CopyEngine(clock)
    dram, nvram = heap_pair(real=True)
    src = dram.allocate(64 * KiB)
    dst = nvram.allocate(64 * KiB)
    dram.view(src, 64 * KiB)[:] = 7
    record = engine.copy(dram, src, nvram, dst, 64 * KiB)
    assert np.all(nvram.view(dst, 64 * KiB) == 7)
    assert exact(record.seconds, clock.now)

"""Copy engine: accounting, timing, thread tuning, real memcpy."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memory.copyengine import PARALLEL_THRESHOLD, CopyEngine
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.sim.clock import SimClock
from repro.telemetry.trace import Tracer
from repro.units import KiB, MiB


def heap_pair(real=False):
    return (
        Heap(MemoryDevice.dram(4 * MiB, real=real)),
        Heap(MemoryDevice.nvram(16 * MiB, real=real)),
    )


def test_copy_accounts_traffic_and_time():
    clock = SimClock()
    engine = CopyEngine(clock)
    dram, nvram = heap_pair()
    src = dram.allocate(MiB)
    dst = nvram.allocate(MiB)
    record = engine.copy(dram, src, nvram, dst, MiB)
    assert (record.source, record.dest, record.nbytes) == ("DRAM", "NVRAM", MiB)
    assert dram.traffic.read_bytes == MiB
    assert nvram.traffic.write_bytes == MiB
    assert clock.now == record.seconds > 0
    assert clock.busy("movement") == record.seconds


def test_copy_zero_bytes_free():
    clock = SimClock()
    engine = CopyEngine(clock)
    dram, nvram = heap_pair()
    record = engine.copy(dram, 0, nvram, 0, 0)
    assert record.seconds == 0.0
    assert clock.now == 0.0


def test_negative_size_rejected():
    engine = CopyEngine(SimClock())
    dram, nvram = heap_pair()
    with pytest.raises(ConfigurationError):
        engine.copy(dram, 0, nvram, 0, -1)


def test_threads_tuned_per_direction():
    engine = CopyEngine(SimClock(), max_threads=28)
    dram, nvram = heap_pair()
    toward_nvram = engine.threads_for(dram, nvram, nt_stores=True)
    from_nvram = engine.threads_for(nvram, dram, nt_stores=True)
    assert toward_nvram < from_nvram  # Optane write collapse vs read ramp


def test_eviction_slower_than_fill():
    """DRAM->NVRAM copies beat NVRAM->DRAM in traffic-shaping terms."""
    engine = CopyEngine(SimClock())
    dram, nvram = heap_pair()
    a = dram.allocate(MiB)
    b = nvram.allocate(MiB)
    evict = engine.copy(dram, a, nvram, b, MiB)
    fill = engine.copy(nvram, b, dram, a, MiB)
    assert evict.seconds > fill.seconds


def test_per_transfer_overhead_added_once():
    clock = SimClock()
    base = CopyEngine(SimClock())
    taxed = CopyEngine(clock, per_transfer_overhead=0.5)
    dram, nvram = heap_pair()
    a = dram.allocate(KiB)
    b = nvram.allocate(KiB)
    r0 = base.copy(dram, a, nvram, b, KiB)
    r1 = taxed.copy(dram, a, nvram, b, KiB)
    assert r1.seconds == pytest.approx(r0.seconds + 0.5)


def test_overhead_rejected_negative():
    with pytest.raises(ConfigurationError):
        CopyEngine(SimClock(), per_transfer_overhead=-1.0)


def test_real_copy_moves_bytes():
    engine = CopyEngine(SimClock())
    dram, nvram = heap_pair(real=True)
    src = dram.allocate(KiB)
    dst = nvram.allocate(KiB)
    dram.view(src)[:] = np.arange(KiB, dtype=np.uint8) % 250
    engine.copy(dram, src, nvram, dst, KiB)
    assert np.array_equal(nvram.view(dst, KiB), dram.view(src, KiB))


def test_real_copy_parallel_path():
    """A copy of PARALLEL_THRESHOLD bytes or more is chunked across the
    worker pool, and every byte arrives."""
    nbytes = PARALLEL_THRESHOLD + 3  # the last chunk is a short one
    engine = CopyEngine(SimClock())
    dram = Heap(MemoryDevice.dram(16 * MiB, real=True))
    nvram = Heap(MemoryDevice.nvram(16 * MiB, real=True))
    src = dram.allocate(nbytes)
    dst = nvram.allocate(nbytes)
    data = np.random.default_rng(0).integers(0, 255, nbytes, dtype=np.uint8)
    dram.view(src, nbytes)[:] = data
    engine.copy(dram, src, nvram, dst, nbytes)
    assert engine._pool is not None
    assert np.array_equal(nvram.view(dst, nbytes), data)
    engine.shutdown()


def test_mixed_real_virtual_rejected():
    engine = CopyEngine(SimClock())
    real = Heap(MemoryDevice.dram(MiB, real=True))
    virtual = Heap(MemoryDevice.nvram(MiB))
    a = real.allocate(KiB)
    b = virtual.allocate(KiB)
    with pytest.raises(ConfigurationError):
        engine.copy(real, a, virtual, b, KiB)


def rejected_copy_state(engine, source, dest):
    return (
        engine.clock.now,
        dict(engine.clock.categories()),
        (source.traffic.read_bytes, source.traffic.write_bytes),
        (dest.traffic.read_bytes, dest.traffic.write_bytes),
        engine._copy_seq,
        dict(engine._channel_free_at),
        dict(engine.injector._counts),
        list(engine.injector.fired),
        len(engine.tracer.events),
    )


MIXED = "cannot copy between a real and a virtual device: 'DRAM' -> 'NVRAM'"
ASYNC_REAL = "asynchronous movement is a timing model; it requires virtual devices"


@pytest.mark.parametrize(
    "async_mode, source_real, dest_real, message",
    [
        pytest.param(False, True, False, MIXED, id="sync real->virtual"),
        pytest.param(False, False, True, MIXED, id="sync virtual->real"),
        pytest.param(True, True, False, ASYNC_REAL, id="async real->virtual"),
        pytest.param(True, False, True, ASYNC_REAL, id="async virtual->real"),
        pytest.param(True, True, True, ASYNC_REAL, id="async real->real"),
    ],
)
def test_a_rejected_copy_leaves_every_counter_untouched(
    async_mode, source_real, dest_real, message
):
    """A copy the engine refuses is refused before it is charged: no clock
    advance, no traffic on either heap, no sequence number, no DMA-channel
    booking, no trace event, and the fault plan's copy counter has not
    moved. The check runs before the pair's plan exists, so a refused pair
    never gets one and the second call is refused the same way."""
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import COPY, FaultPlan, FaultSpec

    clock = SimClock()
    plan = FaultPlan("copy-fails", specs=(FaultSpec(COPY),))
    injector = FaultInjector(plan, clock=clock)
    engine = CopyEngine(
        clock, async_mode=async_mode, injector=injector, tracer=Tracer(clock)
    )
    engine._channel_free_at["NVRAM"] = 1.0
    source = Heap(MemoryDevice.dram(MiB, real=source_real))
    dest = Heap(MemoryDevice.nvram(MiB, real=dest_real))
    before = rejected_copy_state(engine, source, dest)
    src, dst = source.allocate(4 * KiB), dest.allocate(4 * KiB)
    for _ in range(2):
        with pytest.raises(ConfigurationError) as caught:
            engine.copy(source, src, dest, dst, 4 * KiB)
        assert str(caught.value) == message
        assert rejected_copy_state(engine, source, dest) == before
    assert before[0] == 0.0 and before[2] == before[3] == (0, 0)


def test_context_manager_shuts_down():
    with CopyEngine(SimClock()) as engine:
        assert engine._pool is None
    # shutdown idempotent
    engine.shutdown()

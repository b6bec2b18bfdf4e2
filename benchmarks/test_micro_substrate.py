"""Microbenchmarks: the substrate hot paths.

These measure real host performance of the simulator's building blocks
(allocations/sec, cache-sim line throughput, copy-engine memcpy rate), which
bound how large an experiment the harness can run.
"""

import numpy as np
import pytest

from repro.memory.allocator import FreeListAllocator
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.policies.lru import LruTracker
from repro.core.object import MemObject
from repro.sim.clock import SimClock
from repro.twolm.dramcache import DramCacheSim
from repro.units import GiB, KiB, MiB


@pytest.mark.parametrize("fit", ["first", "best"])
def test_allocator_churn(benchmark, fit):
    """Steady-state allocate/free churn at 50% occupancy."""

    def churn():
        allocator = FreeListAllocator(64 * MiB, fit=fit)
        live = [allocator.allocate(64 * KiB) for _ in range(512)]
        for i in range(2000):
            allocator.free(live[i % 512])
            live[i % 512] = allocator.allocate(64 * KiB)
        return allocator

    allocator = benchmark(churn)
    benchmark.extra_info["live_allocations"] = allocator.stats().live_allocations


def test_allocator_compaction(benchmark):
    def run():
        allocator = FreeListAllocator(64 * MiB)
        offsets = [allocator.allocate(32 * KiB) for _ in range(1024)]
        for offset in offsets[::2]:
            allocator.free(offset)
        return allocator.compact()

    moved = benchmark(run)
    assert moved == 512


def test_dramcache_streaming_throughput(benchmark):
    """Lines/second for bulk streaming accesses (the 2LM hot path)."""
    sim = DramCacheSim(256 * MiB, 4 * GiB, line_size=4096)
    sweep = 512 * MiB

    def stream():
        sim.access_range(0, sweep, is_write=False)

    benchmark(stream)
    lines = sweep // 4096
    benchmark.extra_info["lines_per_access"] = lines


def test_dramcache_scattered_tensors(benchmark):
    sim = DramCacheSim(64 * MiB, 1 * GiB, line_size=4096)
    rng = np.random.default_rng(0)
    offsets = rng.integers(0, 900 * MiB, 200)

    def scattered():
        for offset in offsets:
            sim.access_range(int(offset), 2 * MiB, is_write=bool(offset % 2))

    benchmark(scattered)


def test_copyengine_real_memcpy(benchmark):
    """Honest bytes/second of the chunked multi-threaded memcpy."""
    dram = Heap(MemoryDevice.dram(64 * MiB, real=True))
    nvram = Heap(MemoryDevice.nvram(64 * MiB, real=True))
    src = dram.allocate(32 * MiB)
    dst = nvram.allocate(32 * MiB)
    engine = CopyEngine(SimClock())  # 32 MiB: past PARALLEL_THRESHOLD, pooled

    def copy():
        engine.copy(dram, src, nvram, dst, 32 * MiB)

    benchmark(copy)
    engine.shutdown()
    benchmark.extra_info["bytes_per_copy"] = 32 * MiB


def test_lru_tracker_churn(benchmark):
    objects = [MemObject(64, f"o{i}") for i in range(512)]

    def churn():
        tracker = LruTracker()
        for _ in range(4):
            for obj in objects:
                tracker.touch(obj)
            for obj in objects[::7]:
                tracker.demote(obj)
            for obj in objects[::13]:
                tracker.discard(obj)
        return tracker

    benchmark(churn)


def test_trace_generation_resnet(benchmark):
    from repro.nn.models import resnet200

    def build():
        return resnet200(batch=2048).training_trace()

    trace = benchmark(build)
    benchmark.extra_info["events"] = len(trace.events)

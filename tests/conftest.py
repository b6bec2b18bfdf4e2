"""Shared fixtures for the CachedArrays test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.session import Session, SessionConfig
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.core.manager import DataManager
from repro.policies.optimizing import OptimizingPolicy
from repro.sim.clock import SimClock
from repro.units import KiB, MiB

# Tier-1 fuzzing is deterministic: every property test replays the same
# derived examples on every run and keeps no example database, so a red run
# is red for everyone. CI's fuzz-random job explores fresh seeds instead
# (``--hypothesis-profile fuzz-random``) and prints the blob that
# reproduces a failure.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile(
    "fuzz-random", derandomize=False, database=None, print_blob=True
)
settings.load_profile("tier1")


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def small_heaps() -> dict[str, Heap]:
    """A 64 KiB DRAM / 1 MiB NVRAM virtual heap pair."""
    return {
        "DRAM": Heap(MemoryDevice.dram(64 * KiB)),
        "NVRAM": Heap(MemoryDevice.nvram(1 * MiB)),
    }


@pytest.fixture
def manager(clock: SimClock, small_heaps: dict[str, Heap]) -> DataManager:
    return DataManager(small_heaps, CopyEngine(clock))


@pytest.fixture
def real_session():
    """A real-backed session with tight DRAM (1 MiB) over 16 MiB NVRAM."""
    session = Session(
        SessionConfig(dram=1 * MiB, nvram=16 * MiB, real=True),
        policy=OptimizingPolicy(local_alloc=True),
    )
    yield session
    session.close()


@pytest.fixture
def virtual_session():
    """A virtual (metadata-only) session at paper-ish proportions."""
    session = Session(
        SessionConfig(dram=4 * MiB, nvram=64 * MiB),
        policy=OptimizingPolicy(local_alloc=True),
    )
    yield session
    session.close()

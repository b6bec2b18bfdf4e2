"""TwoLMSystem: flat heap + cache access path + timing split."""

import pytest

from repro.errors import ConfigurationError
from repro.memory.device import MemoryDevice
from repro.twolm.system import METADATA_OVERHEAD, TwoLMSystem
from repro.units import KiB, MiB


LINE = 64


def make(**kwargs):
    return TwoLMSystem(
        MemoryDevice.dram(64 * KiB),
        MemoryDevice.nvram(MiB),
        line_size=LINE,
        **kwargs,
    )


def spans(sweeps):
    """The ``(first line, lines, is_write)`` span of each byte-addressed
    ``(offset, size, is_write)`` sweep, unchecked: an empty or out-of-range
    sweep becomes a span the batch itself must refuse."""
    return [
        (offset // LINE, (offset + size - 1) // LINE - offset // LINE + 1, is_write)
        for offset, size, is_write in sweeps
    ]


def test_allocator_over_nvram_space():
    system = make()
    offset = system.allocate(KiB)
    assert system.used_bytes == KiB
    system.free(offset)
    assert system.used_bytes == 0
    assert system.capacity == MiB


def test_access_accounts_device_traffic():
    system = make()
    offset = system.allocate(KiB)
    system.access(offset, KiB, is_write=False)  # cold: 16 clean misses
    assert system.nvram_traffic.read_bytes == KiB
    assert system.nvram_traffic.write_bytes == 0
    assert system.dram_traffic.write_bytes == KiB  # fills
    # access reads + metadata surcharge
    assert system.dram_traffic.read_bytes >= KiB


def test_metadata_surcharge_applied():
    system = make()
    offset = system.allocate(KiB)
    system.access(offset, KiB, is_write=False)  # cold: 16 clean misses
    # A cold read moves 2 KiB through DRAM (1 KiB of fills written, the
    # 1 KiB access read); its reads are the access plus the surcharge on
    # all 2 KiB.
    assert system.dram_traffic.read_bytes == KiB + int(2 * KiB * METADATA_OVERHEAD)


def test_time_split_by_device():
    system = make()
    offset = system.allocate(KiB)
    dram_seconds, nvram_seconds = system.access_spans(
        spans([(offset, KiB, True)]), 1.0
    )
    assert dram_seconds > 0 and nvram_seconds > 0


def test_writeback_time_dominates():
    """Dirty writebacks (temporal NVRAM writes) are the expensive path."""
    system = make()
    system.access(0, 2 * KiB, is_write=True)  # make sets 0..31 dirty
    before = system.cache_stats()
    # 64 KiB cache -> 1024 sets; the address one cache-size away conflicts.
    _, nvram_with_writeback = system.access_spans(
        spans([(64 * KiB, 2 * KiB, False)]), 1.0
    )
    assert (system.cache_stats() - before).dirty_misses == 32
    system.cache.reset()
    _, nvram_clean = system.access_spans(spans([(0, 2 * KiB, False)]), 1.0)  # clean fill
    assert nvram_with_writeback > nvram_clean


@pytest.mark.parametrize("is_write", [False, True])
def test_time_of_is_a_one_sweep_batch(is_write):
    """``access`` then ``time_of`` gives a one-sweep batch's seconds at full
    read sensitivity exactly, and both count the same traffic."""
    single, batch = make(), make()
    for system in (single, batch):
        system.access(0, 2 * KiB, is_write=True)  # dirty victims for the sweep
    result = single.access(64 * KiB, 3 * KiB + 5, is_write=is_write)
    pair = batch.access_spans(spans([(64 * KiB, 3 * KiB + 5, is_write)]), 1.0)
    assert result.dirty_misses == 32
    assert single.time_of(result) == pair
    assert single.traffic() == batch.traffic()
    assert single.cache_stats() == batch.cache_stats()


@pytest.mark.parametrize("ways", [1, 2])
@pytest.mark.parametrize(
    "sweeps, sensitivity, error",
    [
        # The last range runs past the 1 MiB backing store.
        ([(64 * KiB, 2 * KiB, False), (0, KiB, True), (MiB - KiB, 2 * KiB, False)],
         1.0, ConfigurationError),
        ([(0, KiB, False), (0, 0, True)], 1.0, ConfigurationError),
        ([(64 * KiB, 2 * KiB, False)], 1.5, ValueError),
    ],
)
def test_failed_batch_changes_nothing(ways, sweeps, sensitivity, error):
    system = make(ways=ways)
    system.access(0, 2 * KiB, is_write=True)
    cache = system.cache
    runs = (list(cache._bounds), list(cache._states))
    tick, stats, traffic = cache._tick, system.cache_stats(), system.traffic()
    with pytest.raises(error):
        system.access_spans(spans(sweeps), sensitivity)
    assert (cache._bounds, cache._states) == runs
    assert cache._tick == tick
    assert system.cache_stats() == stats and system.traffic() == traffic


@pytest.mark.parametrize("ways", [1, 2])
@pytest.mark.parametrize(
    "spans",
    [
        # The last span runs past the backing store's 16 384 lines.
        [(1024, 32, False), (0, 16, True), (16384 - 16, 32, False)],
        [(0, 16, False), (0, 0, True)],
        [(0, 16, False), (-1, 2, True)],
        # A bad span after a repeat, which the walk answers in closed form.
        [(0, 16, False), (0, 16, False), (16384, 1, False)],
    ],
)
def test_failed_span_batch_changes_nothing(ways, spans):
    """The kernel path's line spans are checked like byte ranges: a batch
    with one bad span raises before any tag, stat or counter changes."""
    system = make(ways=ways)
    system.access(0, 2 * KiB, is_write=True)
    cache = system.cache
    runs = (list(cache._bounds), list(cache._states))
    tick, stats, traffic = cache._tick, system.cache_stats(), system.traffic()
    with pytest.raises(ConfigurationError):
        system.access_spans(spans, 1.0)
    assert (cache._bounds, cache._states) == runs
    assert cache._tick == tick
    assert system.cache_stats() == stats and system.traffic() == traffic


def test_cache_stats_and_traffic_snapshots():
    system = make()
    offset = system.allocate(KiB)
    system.access(offset, KiB, is_write=False)
    system.access(offset, KiB, is_write=False)
    stats = system.cache_stats()
    assert stats.hits == 16 and stats.clean_misses == 16
    traffic = system.traffic()
    assert set(traffic) == {"DRAM", "NVRAM"}


def test_address_reuse_hits_after_free():
    """The Figure 3/4 mechanism: freed-and-reused addresses still hit."""
    system = make()
    a = system.allocate(KiB)
    system.access(a, KiB, is_write=True)
    system.free(a)
    b = system.allocate(KiB)  # first-fit reuses the same offset
    assert b == a
    result = system.access(b, KiB, is_write=True)
    assert result.hits == 16  # dead lines still resident -> no NVRAM traffic
    assert result.nvram_read_bytes == 0

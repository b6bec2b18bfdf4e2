"""Set-associative mode of the DRAM cache simulator."""

import numpy as np
import pytest
from dramcache_reference import ScalarAssocCache
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.twolm.dramcache import DramCacheSim
from repro.units import KiB

LINE = 64


def make(ways, cache=4 * KiB, backing=64 * KiB):
    return DramCacheSim(cache, backing, line_size=LINE, ways=ways)


class TestBasics:
    def test_ways_validated(self):
        with pytest.raises(ConfigurationError):
            make(0)
        with pytest.raises(ConfigurationError):
            DramCacheSim(LINE, 64 * KiB, line_size=LINE, ways=2)

    def test_set_count_scales_down_with_ways(self):
        assert make(1).num_sets == 64
        assert make(4).num_sets == 16
        assert make(1).cache_capacity == make(4).cache_capacity

    def test_two_way_survives_direct_mapped_conflict(self):
        """Two lines mapping to the same direct-mapped set coexist 2-way."""
        direct = make(1)
        assoc = make(2)
        stride = direct.num_sets * LINE  # same set in the direct-mapped cache
        for sim in (direct, assoc):
            sim.access_range(0, LINE, is_write=False)
            sim.access_range(2 * stride, LINE, is_write=False)
            sim.access_range(0, LINE, is_write=False)  # hit iff both resident
        assert direct.stats.hits == 0
        # 2-way: second address lands in another way of the same set-group.
        assert assoc.stats.hits >= 1

    def test_lru_replacement_within_set(self):
        sim = make(2, cache=2 * LINE * 2, backing=64 * KiB)  # 2 sets x 2 ways
        stride = sim.num_sets * LINE
        sim.access_range(0 * stride, LINE, is_write=False)  # A
        sim.access_range(2 * stride, LINE, is_write=False)  # B (same set)
        sim.access_range(0 * stride, LINE, is_write=False)  # touch A (B is LRU)
        sim.access_range(4 * stride, LINE, is_write=False)  # C evicts B
        before = sim.stats.hits
        sim.access_range(0 * stride, LINE, is_write=False)  # A must still hit
        assert sim.stats.hits == before + 1

    def test_dirty_writeback_from_victim_way(self):
        sim = make(2, cache=2 * LINE * 2, backing=64 * KiB)
        stride = sim.num_sets * LINE
        sim.access_range(0, LINE, is_write=True)  # dirty A
        sim.access_range(2 * stride, LINE, is_write=False)  # B same set
        sim.access_range(2 * stride, LINE, is_write=False)  # keep B hot
        result = sim.access_range(4 * stride, LINE, is_write=False)  # evicts A
        assert result.dirty_misses == 1

    def test_invalidate_and_resident_fraction(self):
        sim = make(4)
        sim.access_range(0, KiB, is_write=True)
        assert sim.resident_fraction(0, KiB) == 1.0
        sim.invalidate_range(0, KiB)
        assert sim.resident_fraction(0, KiB) == 0.0
        assert sim.dirty_lines() == 0


@st.composite
def accesses(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    return [
        (
            draw(st.integers(min_value=0, max_value=6000)),
            draw(st.integers(min_value=1, max_value=1500)),
            draw(st.booleans()),
        )
        for _ in range(n)
    ]


@given(accesses(), st.sampled_from([2, 4]))
@settings(max_examples=60, deadline=None)
def test_matches_scalar_reference(sequence, ways):
    num_sets = 8
    sim = DramCacheSim(num_sets * LINE * ways, 8192, line_size=LINE, ways=ways)
    ref = ScalarAssocCache(num_sets, ways, LINE)
    for addr, size, is_write in sequence:
        size = min(size, 8192 - addr)
        if size <= 0:
            continue
        result = sim.access_range(addr, size, is_write=is_write)
        expected = ref.access(addr, size, is_write)
        assert (result.hits, result.clean_misses, result.dirty_misses) == expected


def test_associativity_monotonically_helps_conflict_traffic():
    """More ways => no more misses on a conflict-heavy pattern."""
    rng = np.random.default_rng(0)
    addresses = rng.integers(0, 60 * KiB // LINE, 400) * LINE
    miss_rates = []
    for ways in (1, 2, 4):
        sim = make(ways)
        for addr in addresses:
            sim.access_range(int(addr), LINE, is_write=bool(addr % 2))
        stats = sim.stats
        miss_rates.append(stats.clean_miss_rate + stats.dirty_miss_rate)
    assert miss_rates[0] >= miss_rates[1] >= miss_rates[2] * 0.95

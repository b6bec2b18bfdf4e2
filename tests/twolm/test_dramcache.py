"""Direct-mapped DRAM cache simulator: exact tag semantics."""

import pytest

from repro.errors import ConfigurationError
from repro.twolm.dramcache import DramCacheSim
from repro.units import KiB


def make(cache=4 * KiB, backing=64 * KiB, line=64):
    return DramCacheSim(cache, backing, line_size=line)


class TestConstruction:
    def test_set_count(self):
        sim = make()
        assert sim.num_sets == 64

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigurationError):
            make(line=96)

    def test_rejects_cache_smaller_than_line(self):
        with pytest.raises(ConfigurationError):
            DramCacheSim(32, KiB, line_size=64)

    def test_rejects_backing_smaller_than_cache(self):
        with pytest.raises(ConfigurationError):
            DramCacheSim(4 * KiB, KiB, line_size=64)


class TestBasicAccess:
    def test_cold_read_is_clean_miss(self):
        sim = make()
        result = sim.access_range(0, 64, is_write=False)
        assert (result.hits, result.clean_misses, result.dirty_misses) == (0, 1, 0)
        assert result.nvram_read_bytes == 64  # the fill
        assert result.nvram_write_bytes == 0

    def test_repeat_read_hits(self):
        sim = make()
        sim.access_range(0, 64, is_write=False)
        result = sim.access_range(0, 64, is_write=False)
        assert result.hits == 1
        assert result.nvram_read_bytes == 0

    def test_write_allocate_fetches_line(self):
        """A cold write still reads the line from NVRAM (the compulsory
        movement CA's local allocation elides)."""
        sim = make()
        result = sim.access_range(0, 64, is_write=True)
        assert result.clean_misses == 1
        assert result.nvram_read_bytes == 64

    def test_dirty_eviction_writes_back(self):
        sim = make()
        sim.access_range(0, 64, is_write=True)  # line 0 dirty in set 0
        conflict = sim.num_sets * 64  # maps to set 0 too
        result = sim.access_range(conflict, 64, is_write=False)
        assert result.dirty_misses == 1
        assert result.nvram_write_bytes == 64  # writeback
        assert result.nvram_read_bytes == 64  # fill

    def test_clean_eviction_no_writeback(self):
        sim = make()
        sim.access_range(0, 64, is_write=False)
        result = sim.access_range(sim.num_sets * 64, 64, is_write=False)
        assert result.clean_misses == 1
        assert result.nvram_write_bytes == 0

    def test_read_hit_preserves_dirty_state(self):
        sim = make()
        sim.access_range(0, 64, is_write=True)
        sim.access_range(0, 64, is_write=False)  # read hit must keep dirty
        result = sim.access_range(sim.num_sets * 64, 64, is_write=False)
        assert result.dirty_misses == 1

    def test_partial_line_access_touches_whole_line(self):
        sim = make()
        result = sim.access_range(10, 4, is_write=False)
        assert result.clean_misses == 1

    def test_access_spanning_lines(self):
        sim = make()
        result = sim.access_range(60, 8, is_write=False)  # straddles 2 lines
        assert result.clean_misses == 2


class TestBulkAccess:
    def test_range_larger_than_cache_self_conflicts(self):
        sim = make(cache=KiB, backing=64 * KiB)  # 16 sets
        result = sim.access_range(0, 2 * KiB, is_write=False)  # 32 lines
        assert result.clean_misses == 32
        # Second sweep: every line was evicted by the wraparound -> miss again.
        result = sim.access_range(0, 2 * KiB, is_write=False)
        assert result.hits == 0
        assert result.clean_misses == 32

    def test_range_fitting_in_cache_all_hits_second_time(self):
        sim = make(cache=4 * KiB, backing=64 * KiB)
        sim.access_range(0, 2 * KiB, is_write=False)
        result = sim.access_range(0, 2 * KiB, is_write=False)
        assert result.hits == 32 and result.clean_misses == 0

    def test_dram_bytes_accounting(self):
        sim = make()
        result = sim.access_range(0, 64, is_write=False)
        # miss: access (64) + fill (64), no victim
        assert result.dram_bytes == 128
        result = sim.access_range(0, 64, is_write=False)
        assert result.dram_bytes == 64  # pure hit

    def test_bounds_checked(self):
        sim = make(cache=KiB, backing=4 * KiB)
        with pytest.raises(ConfigurationError):
            sim.access_range(4 * KiB - 32, 64, is_write=False)
        with pytest.raises(ConfigurationError):
            sim.access_range(0, 0, is_write=False)


class TestStats:
    def test_rates(self):
        sim = make()
        sim.access_range(0, 256, is_write=True)  # 4 clean misses
        sim.access_range(0, 256, is_write=True)  # 4 hits
        stats = sim.stats
        assert stats.accesses == 8
        assert stats.hit_rate == pytest.approx(0.5)
        assert stats.clean_miss_rate == pytest.approx(0.5)
        assert stats.dirty_miss_rate == 0.0

    def test_snapshot_diff(self):
        sim = make()
        sim.access_range(0, 64, is_write=False)
        before = sim.cache_stats() if hasattr(sim, "cache_stats") else sim.stats.snapshot()
        sim.access_range(0, 64, is_write=False)
        delta = sim.stats.snapshot() - before
        assert delta.hits == 1 and delta.clean_misses == 0

    def test_empty_rates_zero(self):
        stats = make().stats
        assert stats.hit_rate == 0.0
        assert stats.dirty_miss_rate == 0.0


class TestManagement:
    def test_invalidate_range(self):
        sim = make()
        sim.access_range(0, 256, is_write=True)
        assert sim.dirty_lines() == 4
        sim.invalidate_range(0, 256)
        assert sim.dirty_lines() == 0
        result = sim.access_range(0, 64, is_write=False)
        assert result.clean_misses == 1

    def test_resident_fraction(self):
        sim = make()
        sim.access_range(0, 128, is_write=False)
        assert sim.resident_fraction(0, 256) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "addr, size",
        [(-64, 64), (0, 0), (0, -64), (10**9, 64), (64 * KiB - 32, 64)],
    )
    def test_every_entry_point_validates_the_range(self, addr, size):
        """One shared check: a non-positive size or a range outside the
        backing store raises from all three entry points and changes
        nothing (an empty cache used to report line -1 as resident)."""
        sim = make(cache=4 * KiB, backing=64 * KiB)
        sim.access_range(0, 256, is_write=True)
        before = (sim.resident_fraction(0, 4 * KiB), sim.dirty_lines())
        with pytest.raises(ConfigurationError):
            sim.resident_fraction(addr, size)
        with pytest.raises(ConfigurationError):
            sim.invalidate_range(addr, size)
        with pytest.raises(ConfigurationError):
            sim.access_range(addr, size, is_write=True)
        assert (sim.resident_fraction(0, 4 * KiB), sim.dirty_lines()) == before
        assert sim.stats.accesses == 4

    def test_reset(self):
        sim = make()
        sim.access_range(0, 256, is_write=True)
        sim.reset()
        assert sim.stats.accesses == 0
        assert sim.dirty_lines() == 0

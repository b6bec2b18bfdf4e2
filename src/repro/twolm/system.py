"""The Memory-Mode system: NVRAM main memory behind the DRAM cache.

:class:`TwoLMSystem` is what the trace executor drives in ``2LM:*`` modes.
It mirrors the paper's baseline setup:

* one flat virtual address space of NVRAM capacity, managed by the *same*
  preallocated-heap allocator CachedArrays uses (Section IV-A: "we use 2LM
  with the CachedArrays allocator as the baseline");
* every tensor access routed through the direct-mapped DRAM cache simulator;
* traffic counters per device and cache tag statistics, matching the
  hardware counters the paper samples.

Timing: NVRAM fills and writebacks happen at line granularity chosen by the
cache, not as shaped streaming copies, so they are charged at *temporal*
(cached-store) write bandwidth and a configurable read-efficiency derate —
this is the "haphazard traffic" versus CachedArrays' non-temporal shaped
copies (Section V-b).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.memory.allocator import FreeListAllocator
from repro.memory.device import MemoryDevice
from repro.sim.bandwidth import TransferKind
from repro.telemetry.counters import TrafficCounters
from repro.twolm.dramcache import AccessResult, CacheStats, DramCacheSim

__all__ = ["TwoLMSystem"]


class TwoLMSystem:
    """Flat-address-space memory system with a hardware DRAM cache."""

    def __init__(
        self,
        dram: MemoryDevice,
        nvram: MemoryDevice,
        *,
        line_size: int = 4096,
        ways: int = 1,
        nvram_read_efficiency: float = 0.75,
        fill_threads: int = 16,
        writeback_threads: int = 4,
        metadata_overhead: float = 0.10,
        alignment: int = 64,
    ) -> None:
        if not 0.0 < nvram_read_efficiency <= 1.0:
            raise ConfigurationError(
                f"nvram_read_efficiency must be in (0, 1], got {nvram_read_efficiency}"
            )
        if metadata_overhead < 0:
            raise ConfigurationError(
                f"metadata_overhead must be >= 0, got {metadata_overhead}"
            )
        self.dram = dram
        self.nvram = nvram
        self.cache = DramCacheSim(
            dram.capacity, nvram.capacity, line_size=line_size, ways=ways
        )
        self.allocator = FreeListAllocator(nvram.capacity, alignment=alignment)
        self.dram_traffic = TrafficCounters(dram.name)
        self.nvram_traffic = TrafficCounters(nvram.name)
        self.nvram_read_efficiency = nvram_read_efficiency
        # Demand fills exploit the memory controller's deep MLP (many
        # outstanding line reads); writebacks contend in the WPQ and behave
        # like few-threaded temporal writes [4].
        self.fill_threads = fill_threads
        self.writeback_threads = writeback_threads
        # Cascade Lake's DRAM cache keeps its tags/metadata in DRAM; every
        # access carries extra metadata traffic — the "cache-line-level
        # metadata tracking ... poor bandwidth utilization" of the paper's
        # introduction. Modelled as a fractional DRAM traffic surcharge.
        self.metadata_overhead = metadata_overhead

    # -- heap ------------------------------------------------------------------

    def allocate(self, size: int) -> int:
        """Allocate in the flat (NVRAM-backed) address space."""
        return self.allocator.allocate(size)

    def free(self, offset: int) -> None:
        self.allocator.free(offset)

    @property
    def used_bytes(self) -> int:
        return self.allocator.used_bytes

    @property
    def capacity(self) -> int:
        return self.allocator.capacity

    # -- access path -------------------------------------------------------------

    def access(self, offset: int, size: int, *, is_write: bool) -> AccessResult:
        """Route a tensor access through the DRAM cache; account traffic."""
        result = self.cache.access_range(offset, size, is_write=is_write)
        # dram_bytes = the demand access + miss fills + dirty-victim
        # readouts, and the last two are exactly the NVRAM byte counts.
        # Fills and write-accesses write DRAM; read-accesses, victim
        # readouts and the metadata surcharge read it.
        _, _, _, dram_bytes, fill_bytes, victim_bytes = result
        metadata_bytes = int(dram_bytes * self.metadata_overhead)
        if is_write:
            self.dram_traffic.record_write(dram_bytes - victim_bytes)
            self.dram_traffic.record_read(victim_bytes + metadata_bytes)
        else:
            self.dram_traffic.record_read(dram_bytes - fill_bytes + metadata_bytes)
            self.dram_traffic.record_write(fill_bytes)
        self.nvram_traffic.record_read(fill_bytes)
        self.nvram_traffic.record_write(victim_bytes)
        return result

    def time_of(self, result: AccessResult) -> tuple[float, float]:
        """(DRAM seconds, NVRAM seconds) of service time for one access."""
        _, _, _, dram_bytes, nvram_read_bytes, nvram_write_bytes = result
        dram_seconds = nvram_seconds = 0.0
        if dram_bytes:
            dram_seconds = self.dram.bandwidth.transfer_time(
                TransferKind.READ,
                int(dram_bytes * (1.0 + self.metadata_overhead)),
                self.fill_threads,
            )
        if nvram_read_bytes:
            nvram_seconds = (
                self.nvram.bandwidth.transfer_time(
                    TransferKind.READ, nvram_read_bytes, self.fill_threads
                )
                / self.nvram_read_efficiency
            )
        if nvram_write_bytes:
            # Writebacks are cached (temporal) line writes — the slow path.
            nvram_seconds += self.nvram.bandwidth.transfer_time(
                TransferKind.WRITE, nvram_write_bytes, self.writeback_threads
            )
        return dram_seconds, nvram_seconds

    # -- telemetry -----------------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        return self.cache.stats.snapshot()

    def traffic(self) -> dict[str, object]:
        return {
            self.dram.name: self.dram_traffic.snapshot(),
            self.nvram.name: self.nvram_traffic.snapshot(),
        }

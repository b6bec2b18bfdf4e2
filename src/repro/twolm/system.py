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
(cached-store) write bandwidth and a fixed read-efficiency derate —
this is the "haphazard traffic" versus CachedArrays' non-temporal shaped
copies (Section V-b).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cached_property

from repro.memory.allocator import FreeListAllocator
from repro.memory.device import MemoryDevice
from repro.sim.bandwidth import TransferKind
from repro.telemetry.counters import TrafficCounters
from repro.twolm.dramcache import AccessResult, CacheStats, DramCacheSim

__all__ = [
    "FILL_THREADS",
    "METADATA_OVERHEAD",
    "NVRAM_READ_EFFICIENCY",
    "WRITEBACK_THREADS",
    "TwoLMSystem",
]

_READ, _WRITE = TransferKind.READ, TransferKind.WRITE

# The read-efficiency derate on NVRAM line fills.
NVRAM_READ_EFFICIENCY = 0.75
# Demand fills exploit the memory controller's deep MLP (many outstanding
# line reads); writebacks contend in the WPQ and behave like few-threaded
# temporal writes [4].
FILL_THREADS = 16
WRITEBACK_THREADS = 4
# Cascade Lake's DRAM cache keeps its tags/metadata in DRAM; every access
# carries extra metadata traffic — the "cache-line-level metadata tracking
# ... poor bandwidth utilization" of the paper's introduction. Modelled as
# a fractional DRAM traffic surcharge.
METADATA_OVERHEAD = 0.10


class TwoLMSystem:
    """Flat-address-space memory system with a hardware DRAM cache."""

    def __init__(
        self,
        dram: MemoryDevice,
        nvram: MemoryDevice,
        *,
        line_size: int = 4096,
        ways: int = 1,
        alignment: int = 64,
    ) -> None:
        self.dram = dram
        self.nvram = nvram
        self.cache = DramCacheSim(
            dram.capacity, nvram.capacity, line_size=line_size, ways=ways
        )
        self.allocator = FreeListAllocator(nvram.capacity, alignment=alignment)
        self.dram_traffic = TrafficCounters(dram.name)
        self.nvram_traffic = TrafficCounters(nvram.name)

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
        """Route one tensor access through the DRAM cache; account traffic.
        A one-sweep :meth:`access_spans` batch, its counts read off the
        cache's ``stats``."""
        cache = self.cache
        stats = cache.stats
        hits, dirty = stats.hits, stats.dirty_misses
        first, count = cache.line_span(offset, size)
        self.access_spans(((first, count, is_write),), 1.0)
        return AccessResult.of(
            count, stats.hits - hits, stats.dirty_misses - dirty, cache.line_size
        )

    def access_spans(
        self, spans: Sequence[tuple[int, int, bool]], read_sensitivity: float
    ) -> tuple[float, float]:
        """Route a kernel's ``(first line, lines, is_write)`` spans, in
        order, through the DRAM cache; account traffic and return the
        kernel's (DRAM seconds, NVRAM seconds) of service time.

        ``read_sensitivity`` is the share of a read sweep's NVRAM time
        exposed as a stall, as in :func:`~repro.runtime.kernel.kernel_timing`.
        The cache prices each sweep from the sweep-cost memo as it walks
        it (:meth:`DramCacheSim.walk_spans`). A batch that fails its checks
        changes nothing.
        """
        if not 0.0 <= read_sensitivity <= 1.0:
            raise ValueError(f"read_sensitivity must be in [0,1]: {read_sensitivity}")
        return self._record(*self.cache.walk_spans(
            spans, self._sweep_costs, self._sweep_cost, read_sensitivity
        ))

    def time_of(self, result: AccessResult) -> tuple[float, float]:
        """(DRAM seconds, NVRAM seconds) of service time for one access:
        its sweep's cost at full read sensitivity."""
        lines = result.hits + result.clean_misses + result.dirty_misses
        entry = (lines, result.hits, result.dirty_misses)
        cost = self._sweep_costs.get((False, entry)) or self._sweep_cost(False, entry)
        return cost[0], cost[1]

    def _record(self, dram_time, nvram_time, *traffic: int) -> tuple[float, float]:
        """Charge a walk's byte totals (DRAM read, DRAM write, NVRAM read,
        NVRAM write) to the counters in place (a walk's totals are never
        negative); pass its times on."""
        dram, nvram = self.dram_traffic, self.nvram_traffic
        dram.read_bytes += traffic[0]
        dram.write_bytes += traffic[1]
        nvram.read_bytes += traffic[2]
        nvram.write_bytes += traffic[3]
        return dram_time, nvram_time

    @cached_property
    def _sweep_costs(self) -> dict[tuple, tuple]:
        """Each distinct sweep's cost, keyed by ``(is_write, (lines, hits,
        dirty misses))`` and filled by :meth:`_sweep_cost`.

        A sweep's cost depends on nothing else: the line size and the device
        models are fixed at construction, the thread counts and the
        overheads are module constants, and the read sensitivity is applied
        by the walk. A
        ``cnn-2lm`` pass prices 141 332 sweeps and misses the memo 2 196
        times. A snapshot written without the memo refills it lazily.
        """
        return {}

    def _sweep_cost(self, is_write: bool, entry: tuple[int, int, int]) -> tuple:
        """The memo's miss path, and the only body of a sweep's arithmetic:
        (DRAM s, NVRAM s, DRAM read, DRAM write, NVRAM read, NVRAM write
        bytes) from its ``(lines, hits, dirty misses)`` entry. The NVRAM
        time is whole; the walk splits a read's into hidden and exposed
        shares."""
        lines, hits, dirty = entry
        ls = self.cache.line_size
        overhead = METADATA_OVERHEAD
        # dram_bytes = the demand access + miss fills + dirty-victim
        # readouts, and the last two are exactly the NVRAM byte counts.
        # Fills and write-accesses write DRAM; read-accesses, victim
        # readouts and the metadata surcharge read it.
        misses = lines - hits
        dram_bytes = (lines + misses + dirty) * ls
        fill_bytes = misses * ls
        victim_bytes = dirty * ls
        metadata_bytes = int(dram_bytes * overhead)
        if is_write:
            dram_write = dram_bytes - victim_bytes
            dram_read = victim_bytes + metadata_bytes
        else:
            dram_read = dram_bytes - fill_bytes + metadata_bytes
            dram_write = fill_bytes
        # Every sweep touches at least one line, so dram_bytes > 0; the
        # metadata surcharge taxes every DRAM byte moved.
        dram = self.dram.bandwidth.transfer_time(
            _READ, int(dram_bytes * (1.0 + overhead)), FILL_THREADS
        )
        nvram = 0.0
        if fill_bytes:
            nvram = (
                self.nvram.bandwidth.transfer_time(_READ, fill_bytes, FILL_THREADS)
                / NVRAM_READ_EFFICIENCY
            )
        if victim_bytes:
            # Writebacks are cached (temporal) line writes — the slow path.
            nvram += self.nvram.bandwidth.transfer_time(
                _WRITE, victim_bytes, WRITEBACK_THREADS
            )
        cost = self._sweep_costs[is_write, entry] = (
            dram, nvram, dram_read, dram_write, fill_bytes, victim_bytes
        )
        return cost

    # -- telemetry -----------------------------------------------------------------

    def cache_stats(self) -> CacheStats:
        return self.cache.stats.snapshot()

    def traffic(self) -> dict[str, object]:
        return {
            self.dram.name: self.dram_traffic.snapshot(),
            self.nvram.name: self.nvram_traffic.snapshot(),
        }

"""Address-ordered free-list allocator over a preallocated arena.

This is the allocator underneath every CachedArrays heap. Design points taken
from the paper:

* Heaps are preallocated; the allocator never asks the OS for more memory
  (Section III-C). Exhaustion raises :class:`~repro.errors.OutOfMemoryError`
  and is expected to be handled by the *policy* via eviction.
* ``evictfrom`` needs to free a *contiguous* block of a requested size
  starting from a policy-chosen region (Listing 2). :meth:`collect_span`
  computes which live allocations stand in the way of such a span.
* The paper defragments heaps between iterations; :meth:`compact` slides all
  live blocks to the bottom of the arena, reporting each move through a
  callback so the heap can relocate real data and the manager can re-point
  regions.

The allocator keeps every block (free and used) in a single address-ordered
list and coalesces free neighbours eagerly, so fragmentation metrics and span
queries are straightforward and the list length stays proportional to the
number of live allocations. First-fit and best-fit placement are both
implemented; first-fit is the default (and what the ablation benchmark
compares).

Hot-path layout (docs/benchmarking.md): two pure indexes ride beside the
block list. Free blocks are indexed in size-class bins (one bin per
``size.bit_length()``, each an offset-sorted list), so placement probes a
handful of bins instead of scanning the whole block list. ``_offsets`` is the
sorted list of every block's start offset, parallel to ``_blocks``;
``allocate``, ``free`` and ``collect_span`` find the block containing an
address with one C-level ``bisect_right`` over it. Neither index decides
anything — placement is bit-for-bit identical to the naive linear scans
(first-fit: lowest-offset free block that fits; best-fit: smallest fitting
size, lowest offset on ties) and the address lookup answers what a linear walk
of the block list would, which the property tests in
``tests/memory/test_allocator_property.py`` check against reference
implementations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Callable, Iterator, Literal

from repro.errors import AllocationError, OutOfMemoryError
from repro.memory.block import Block

__all__ = ["FreeListAllocator", "AllocatorStats"]

FitPolicy = Literal["first", "best"]


@dataclass(frozen=True)
class AllocatorStats:
    """Occupancy and fragmentation summary for one allocator."""

    capacity: int
    used_bytes: int
    free_bytes: int
    live_allocations: int
    free_blocks: int
    largest_free_block: int

    @property
    def external_fragmentation(self) -> float:
        """1 - largest_free/free: 0 when all free space is one block."""
        if self.free_bytes == 0:
            return 0.0
        return 1.0 - self.largest_free_block / self.free_bytes


class FreeListAllocator:
    """First-fit (or best-fit) allocator over ``[0, capacity)``."""

    def __init__(
        self,
        capacity: int,
        *,
        alignment: int = 64,
        fit: FitPolicy = "first",
        fault_hook: Callable[[str, int, int], str | None] | None = None,
        label: str = "<arena>",
    ) -> None:
        if capacity <= 0:
            raise AllocationError(f"arena capacity must be positive, got {capacity}")
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise AllocationError(f"alignment must be a power of two, got {alignment}")
        if fit not in ("first", "best"):
            raise AllocationError(f"unknown fit policy {fit!r}")
        self.capacity = capacity
        self.alignment = alignment
        self.fit: FitPolicy = fit
        # Fault-injection seam (docs/robustness.md): a duck-typed callable
        # ``hook(label, size, free) -> "fail" | "fragment" | None`` consulted
        # before each allocation. The allocator never imports repro.faults.
        self.fault_hook = fault_hook
        self.label = label
        self._blocks: list[Block] = [Block(offset=0, size=capacity, free=True)]
        # Address index: _offsets[i] == _blocks[i].offset, kept in step at
        # every site that inserts, removes or renumbers a block.
        self._offsets: list[int] = [0]
        self._by_offset: dict[int, Block] = {}  # allocated blocks only
        self.used_bytes = 0
        # Size-class index over the free blocks: bin k holds the offsets
        # (sorted) of free blocks whose size has bit_length k, and
        # _free_sizes maps each free offset to its size. Everything the
        # placement scan needs, without walking allocated blocks.
        self._bins: list[list[int]] = [[] for _ in range(capacity.bit_length() + 2)]
        self._free_sizes: dict[int, int] = {}
        self._free_add(0, capacity)

    # -- free-block index ---------------------------------------------------

    def _free_add(self, offset: int, size: int) -> None:
        k = size.bit_length()
        bins = self._bins
        if k >= len(bins):  # arena grew past the initial capacity
            bins.extend([] for _ in range(k - len(bins) + 1))
        insort(bins[k], offset)
        self._free_sizes[offset] = size

    def _free_remove(self, offset: int, size: int) -> None:
        bin_ = self._bins[size.bit_length()]
        del bin_[bisect_left(bin_, offset)]
        del self._free_sizes[offset]

    # -- queries ----------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def blocks(self) -> Iterator[Block]:
        """All blocks in address order (free and allocated)."""
        return iter(self._blocks)

    def live_blocks(self) -> Iterator[Block]:
        """Allocated blocks in address order."""
        return (block for block in self._blocks if not block.free)

    def size_of(self, offset: int) -> int:
        """Size of the allocation starting at ``offset``."""
        block = self._by_offset.get(offset)
        if block is None:
            raise AllocationError(f"no allocation at offset {offset:#x}")
        return block.size

    def stats(self) -> AllocatorStats:
        # The largest free block lives in the highest non-empty size-class
        # bin (bin k holds sizes in [2^(k-1), 2^k), disjoint across bins).
        largest = 0
        free_sizes = self._free_sizes
        for bin_ in reversed(self._bins):
            if bin_:
                largest = max(free_sizes[offset] for offset in bin_)
                break
        return AllocatorStats(
            capacity=self.capacity,
            used_bytes=self.used_bytes,
            free_bytes=self.free_bytes,
            live_allocations=len(self._by_offset),
            free_blocks=len(self._free_sizes),
            largest_free_block=largest,
        )

    # -- allocation -------------------------------------------------------

    def _round_up(self, size: int) -> int:
        mask = self.alignment - 1
        return (size + mask) & ~mask

    def allocate(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the arena offset.

        Raises :class:`OutOfMemoryError` when no free block fits, which the
        caller (a policy) resolves by evicting and retrying.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        rounded = self._round_up(size)
        if self.fault_hook is not None:
            verdict = self.fault_hook(self.label, rounded, self.free_bytes)
            if verdict is not None:
                # Injected failure ("fail") or artificial fragmentation
                # ("fragment"): either way the allocation honestly fails with
                # the real free-byte count — free >= requested tells the
                # recovery ladder that defragmentation is the right response.
                raise OutOfMemoryError(self.label, rounded, self.free_bytes)
        offset = self._find_fit(rounded)
        if offset is None:
            raise OutOfMemoryError(self.label, rounded, self.free_bytes)
        index = self._block_index_at(offset)
        block = self._blocks[index]
        self._free_remove(block.offset, block.size)
        if block.size > rounded:
            remainder = Block(
                offset=block.offset + rounded,
                size=block.size - rounded,
                free=True,
            )
            block.size = rounded
            self._blocks.insert(index + 1, remainder)
            self._offsets.insert(index + 1, remainder.offset)
            self._free_add(remainder.offset, remainder.size)
        block.free = False
        self._by_offset[block.offset] = block
        self.used_bytes += block.size
        return block.offset

    def _find_fit(self, size: int) -> int | None:
        """Offset of the placement target, or ``None`` when nothing fits.

        Probes the size-class bins: for a request of class ``c`` every block
        in a higher bin fits, while bin ``c`` itself must be checked
        per-block. Both fit policies reproduce the naive full-list scan
        exactly (see the module docstring).
        """
        bins = self._bins
        free_sizes = self._free_sizes
        c = size.bit_length()
        if c >= len(bins):
            return None
        if self.fit == "first":
            # Lowest-offset fitting block: the best candidate from bin c
            # versus the lowest head of any higher (always-fitting) bin.
            best: int | None = None
            for offset in bins[c]:
                if free_sizes[offset] >= size:
                    best = offset
                    break
            for bin_ in bins[c + 1:]:
                if bin_ and (best is None or bin_[0] < best):
                    best = bin_[0]
            return best
        # Best fit: bins partition sizes into disjoint ranges, so the first
        # bin (lowest class) containing a fitting block holds the smallest
        # fitting size; ties break to the lowest offset, matching the
        # linear scan's first-encountered-in-address-order rule.
        for k in range(c, len(bins)):
            best = None
            best_size = None
            for offset in bins[k]:
                blk_size = free_sizes[offset]
                if blk_size < size:
                    continue
                if best_size is None or blk_size < best_size:
                    best, best_size = offset, blk_size
            if best is not None:
                return best
        return None

    def free(self, offset: int) -> None:
        """Free the allocation at ``offset``, coalescing with neighbours."""
        block = self._by_offset.pop(offset, None)
        if block is None:
            raise AllocationError(f"double free or bad offset {offset:#x}")
        block.free = True
        self.used_bytes -= block.size
        self._coalesce_around(self._block_index_at(block.offset))

    def _coalesce_around(self, index: int) -> None:
        # Merge with successor first so `index` stays valid; the merged
        # result enters the free index exactly once.
        blocks = self._blocks
        offsets = self._offsets
        block = blocks[index]
        if index + 1 < len(blocks) and blocks[index + 1].free:
            nxt = blocks.pop(index + 1)
            offsets.pop(index + 1)
            self._free_remove(nxt.offset, nxt.size)
            block.size += nxt.size
        if index > 0 and blocks[index - 1].free:
            prev = blocks[index - 1]
            self._free_remove(prev.offset, prev.size)
            prev.size += block.size
            blocks.pop(index)
            offsets.pop(index)
            block = prev
        self._free_add(block.offset, block.size)

    # -- span carving (the substrate for evictfrom) ------------------------

    def collect_span(self, start_offset: int, size: int) -> list[int] | None:
        """Live allocations blocking a contiguous ``size``-byte span.

        Starting from the block containing ``start_offset``, walk forward in
        address order until the accumulated span (free gaps plus allocations
        that would be evicted) reaches ``size``. Returns the offsets of the
        allocated blocks inside that span, in address order — the callback
        targets of ``evictfrom`` (Listing 2). Returns ``None`` when the arena
        end is hit first; the caller may retry from offset 0.
        """
        if size <= 0:
            raise AllocationError(f"span size must be positive, got {size}")
        rounded = self._round_up(size)
        blocks = self._blocks
        start_index = self._block_index_at(start_offset)
        span_start = blocks[start_index].offset
        victims: list[int] = []
        for index in range(start_index, len(blocks)):
            block = blocks[index]
            if not block.free:
                victims.append(block.offset)
            if block.end - span_start >= rounded:
                return victims
        return None

    def _block_index_at(self, offset: int) -> int:
        if not 0 <= offset < self.capacity:
            raise AllocationError(
                f"offset {offset:#x} outside arena [0, {self.capacity:#x})"
            )
        # Blocks tile [0, capacity), so the last start <= offset is the
        # block that contains it.
        return bisect_right(self._offsets, offset) - 1

    # -- compaction ---------------------------------------------------------

    def compact(
        self, on_move: Callable[[int, int, int], None] | None = None
    ) -> int:
        """Slide live allocations to the bottom of the arena.

        ``on_move(old_offset, new_offset, size)`` fires for every relocated
        block *in ascending address order*, so moves never overwrite data that
        has not been copied yet (a memmove-down is always safe left-to-right).
        Returns the number of blocks moved.
        """
        moved = 0
        cursor = 0
        new_blocks: list[Block] = []
        for block in self._blocks:
            if block.free:
                continue
            if block.offset != cursor:
                if on_move is not None:
                    on_move(block.offset, cursor, block.size)
                del self._by_offset[block.offset]
                block.offset = cursor
                self._by_offset[cursor] = block
                moved += 1
            new_blocks.append(block)
            cursor += block.size
        for bin_ in self._bins:
            bin_.clear()
        self._free_sizes.clear()
        if cursor < self.capacity:
            new_blocks.append(
                Block(offset=cursor, size=self.capacity - cursor, free=True)
            )
            self._free_add(cursor, self.capacity - cursor)
        self._blocks = new_blocks
        self._offsets = [block.offset for block in new_blocks]
        return moved

    # -- dynamic resizing (Section III-C's "growing or shrinking the base
    # heap"; real deployments would mmap/munmap the tail) -------------------

    def grow(self, new_capacity: int) -> None:
        """Extend the arena to ``new_capacity`` bytes."""
        if new_capacity <= self.capacity:
            raise AllocationError(
                f"grow target {new_capacity} not larger than {self.capacity}"
            )
        added = new_capacity - self.capacity
        last = self._blocks[-1]
        if last.free:
            self._free_remove(last.offset, last.size)
            last.size += added
            self._free_add(last.offset, last.size)
        else:
            self._blocks.append(Block(offset=self.capacity, size=added, free=True))
            self._offsets.append(self.capacity)
            self._free_add(self.capacity, added)
        self.capacity = new_capacity

    def shrink(self, new_capacity: int) -> None:
        """Give back the arena tail; fails if live data would be cut off.

        Compact first (or rely on the policy's object reallocation) when the
        tail is occupied — "CachedArrays inherently supports object
        reallocation which mitigates fragmentation in either case".
        """
        if new_capacity <= 0:
            raise AllocationError(f"shrink target must be positive: {new_capacity}")
        if new_capacity >= self.capacity:
            raise AllocationError(
                f"shrink target {new_capacity} not smaller than {self.capacity}"
            )
        last = self._blocks[-1]
        if not last.free or last.offset > new_capacity:
            raise AllocationError(
                f"cannot shrink to {new_capacity}: tail is occupied "
                f"(free tail starts at {last.offset if last.free else self.capacity})"
            )
        removed = self.capacity - new_capacity
        self._free_remove(last.offset, last.size)
        if last.size == removed:
            self._blocks.pop()
            self._offsets.pop()
        else:
            last.size -= removed
            self._free_add(last.offset, last.size)
        self.capacity = new_capacity

    # -- validation (test support) -----------------------------------------

    def check_invariants(self) -> None:
        """Assert the block list exactly tiles the arena without overlap."""
        cursor = 0
        used = 0
        previous_free = False
        for block in self._blocks:
            if block.offset != cursor:
                raise AssertionError(
                    f"block list has a gap/overlap at {cursor:#x}: {block!r}"
                )
            if block.size <= 0:
                raise AssertionError(f"empty block {block!r}")
            if block.free and previous_free:
                raise AssertionError(f"uncoalesced free blocks at {block.offset:#x}")
            if not block.free:
                used += block.size
                if self._by_offset.get(block.offset) is not block:
                    raise AssertionError(f"index out of sync for {block!r}")
            previous_free = block.free
            cursor = block.end
        if cursor != self.capacity:
            raise AssertionError(f"blocks cover {cursor} of {self.capacity} bytes")
        if used != self.used_bytes:
            raise AssertionError(
                f"used-byte counter {self.used_bytes} != actual {used}"
            )
        if self._offsets != [block.offset for block in self._blocks]:
            raise AssertionError("address index out of sync with the block list")
        if len(self._by_offset) != sum(1 for b in self._blocks if not b.free):
            raise AssertionError("allocation index size mismatch")
        free_view = {b.offset: b.size for b in self._blocks if b.free}
        if self._free_sizes != free_view:
            raise AssertionError(
                f"free index out of sync: {self._free_sizes} != {free_view}"
            )
        for k, bin_ in enumerate(self._bins):
            if bin_ != sorted(bin_):
                raise AssertionError(f"free bin {k} not offset-sorted: {bin_}")
            for offset in bin_:
                size = self._free_sizes.get(offset)
                if size is None or size.bit_length() != k:
                    raise AssertionError(
                        f"free block at {offset:#x} filed in wrong bin {k}"
                    )
        if sum(len(bin_) for bin_ in self._bins) != len(self._free_sizes):
            raise AssertionError("free bins and free-size map disagree")

"""Boundary-tag free-list allocator over a preallocated arena.

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

The allocator keeps no block list. Every block (free and used) is one entry
in one of two maps keyed by its start offset, and the blocks tile
``[0, capacity)`` in address order, so walking ``offset += size`` from any
block start visits its successors. Free neighbours are coalesced eagerly, so
the number of blocks stays proportional to the number of live allocations.
First-fit and best-fit placement are both implemented; first-fit is the
default (and what the ablation benchmark compares).

Hot-path layout (docs/benchmarking.md): boundary tags. ``_used`` maps each
allocation's offset to its size; ``_free_sizes`` maps each free block's
offset to its size, and ``_free_ends`` maps its end back to its offset (the
end tag). Freeing finds the successor as ``_free_sizes[offset + size]`` and
the predecessor as ``_free_ends[offset]`` — coalescing is two dict lookups,
with no search over the arena. Free blocks are also filed in size-class bins
(one bin per ``size.bit_length()``, each an offset-sorted list), and
``_mask`` has bit k set while bin k is non-empty, so placement probes a
handful of bins and first fit visits only non-empty ones above the
request's class; a split writes the remainder's two
tags and re-files one offset. ``Block`` objects exist only as address-ordered
views (:meth:`blocks`, :meth:`live_blocks`) for scans off the hot path and for
tests. The bins only speed placement up — it is bit-for-bit identical to the
naive linear scans (first-fit: lowest-offset free block that fits; best-fit:
smallest fitting size, lowest offset on ties), which the property tests in
``tests/memory/test_allocator_property.py`` check against reference
implementations over :meth:`blocks`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
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
        self.used_bytes = 0
        self._used: dict[int, int] = {}  # allocation offset -> size
        # Free blocks: offset -> size, and the boundary tag end -> offset.
        self._free_sizes: dict[int, int] = {}
        self._free_ends: dict[int, int] = {}
        # Size-class index over the free blocks: bin k holds the offsets
        # (sorted) of free blocks whose size has bit_length k. Everything the
        # placement scan needs, without walking allocated blocks. There is
        # always a bin past the capacity's class (``grow`` adds them).
        self._bins: list[list[int]] = [[] for _ in range(capacity.bit_length() + 2)]
        # Bit k is set iff bin k is non-empty, so first fit visits only the
        # non-empty bins above a request's class. Derived from the bins:
        # dropped on save, rebuilt on restore.
        self._mask = 0
        self._free_add(0, capacity)

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        del state["_mask"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._mask = sum(1 << k for k, bin_ in enumerate(self._bins) if bin_)

    # -- free-block index ---------------------------------------------------

    def _free_add(self, offset: int, size: int) -> None:
        k = size.bit_length()
        insort(self._bins[k], offset)
        self._mask |= 1 << k
        self._free_sizes[offset] = size
        self._free_ends[offset + size] = offset

    def _free_remove(self, offset: int) -> None:
        size = self._free_sizes.pop(offset)
        del self._free_ends[offset + size]
        k = size.bit_length()
        bin_ = self._bins[k]
        del bin_[bisect_left(bin_, offset)]
        if not bin_:
            self._mask ^= 1 << k

    # -- queries ----------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used_bytes

    def blocks(self) -> Iterator[Block]:
        """All blocks in address order (free and allocated), built as views."""
        used, free_sizes = self._used, self._free_sizes
        offset = 0
        while offset < self.capacity:
            free = offset not in used
            size = free_sizes[offset] if free else used[offset]
            yield Block(offset, size, free)
            offset += size

    def live_blocks(self) -> Iterator[Block]:
        """Allocated blocks in address order, built as views."""
        return (
            Block(offset, size, False) for offset, size in sorted(self._used.items())
        )

    def size_of(self, offset: int) -> int:
        """Size of the allocation starting at ``offset``."""
        size = self._used.get(offset)
        if size is None:
            raise AllocationError(f"no allocation at offset {offset:#x}")
        return size

    def stats(self) -> AllocatorStats:
        # The largest free block lives in the highest non-empty size-class
        # bin (bin k holds sizes in [2^(k-1), 2^k), disjoint across bins).
        largest = 0
        free_sizes = self._free_sizes
        if self._mask:
            bin_ = self._bins[self._mask.bit_length() - 1]
            largest = max(free_sizes[offset] for offset in bin_)
        return AllocatorStats(
            capacity=self.capacity,
            used_bytes=self.used_bytes,
            free_bytes=self.free_bytes,
            live_allocations=len(self._used),
            free_blocks=len(free_sizes),
            largest_free_block=largest,
        )

    # -- allocation -------------------------------------------------------

    def _round_up(self, size: int) -> int:
        return (size + self.alignment - 1) & -self.alignment

    def allocate(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the arena offset.

        Raises :class:`OutOfMemoryError` when no free block fits, which the
        caller (a policy) resolves by evicting and retrying.
        """
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        rounded = (size + self.alignment - 1) & -self.alignment  # _round_up
        if self.fault_hook is not None:
            verdict = self.fault_hook(self.label, rounded, self.free_bytes)
            if verdict is not None:
                # Injected failure ("fail") or artificial fragmentation
                # ("fragment"): either way the allocation honestly fails with
                # the real free-byte count — free >= requested tells the
                # recovery ladder that defragmentation is the right response.
                raise OutOfMemoryError(self.label, rounded, self.free_bytes)
        if rounded > self.capacity - self.used_bytes:
            # No free block is that large. This also keeps the request's
            # class c inside the bins (there is one past the capacity's).
            raise OutOfMemoryError(self.label, rounded, self.free_bytes)
        # Placement probes the size-class bins: for a request of class c
        # every block in a higher bin fits, while bin c itself must be
        # checked per block. Both fit policies reproduce the naive full-list
        # scan exactly (see the module docstring).
        bins, free_sizes = self._bins, self._free_sizes
        c = rounded.bit_length()
        offset = None
        if self.fit == "first":
            # Lowest-offset fitting block: the first fit in bin c versus the
            # lowest head of any higher (always-fitting) non-empty bin,
            # visited lowest class first through the mask's set bits.
            for candidate in bins[c]:
                if free_sizes[candidate] >= rounded:
                    offset = candidate
                    break
            higher = self._mask >> (c + 1)
            k = c
            while higher:
                skip = (higher & -higher).bit_length()
                k += skip
                higher >>= skip
                head = bins[k][0]
                if offset is None or head < offset:
                    offset = head
        else:
            # Best fit: bins partition sizes into disjoint ranges, so the
            # first bin (lowest class) holding a fitting block holds the
            # smallest fitting size; ties break to the lowest offset, the
            # linear scan's first-encountered-in-address-order rule.
            for bin_ in bins[c:]:
                best_size = 0
                for candidate in bin_:
                    candidate_size = free_sizes[candidate]
                    if candidate_size >= rounded and (
                        offset is None or candidate_size < best_size
                    ):
                        offset, best_size = candidate, candidate_size
                if offset is not None:
                    break
        if offset is None:
            raise OutOfMemoryError(self.label, rounded, self.free_bytes)
        block_size = free_sizes.pop(offset)
        block_k = block_size.bit_length()
        bin_ = bins[block_k]
        index = bisect_left(bin_, offset)
        end = offset + block_size
        if block_size > rounded:
            # Split: the remainder keeps the block's end tag and gets a start
            # tag. No other free block starts inside [offset, end), so when
            # the remainder stays in this bin it takes the target's slot.
            rest = offset + rounded
            rest_size = block_size - rounded
            free_sizes[rest] = rest_size
            self._free_ends[end] = rest
            k = rest_size.bit_length()
            if k == block_k:
                bin_[index] = rest
            else:
                del bin_[index]
                insort(bins[k], rest)
                self._mask |= 1 << k
                if not bin_:
                    self._mask ^= 1 << block_k
        else:
            del bin_[index]
            del self._free_ends[end]
            if not bin_:
                self._mask ^= 1 << block_k
        self._used[offset] = rounded
        self.used_bytes += rounded
        return offset

    def free(self, offset: int) -> None:
        """Free the allocation at ``offset``, coalescing with neighbours."""
        size = self._used.pop(offset, None)
        if size is None:
            raise AllocationError(f"double free or bad offset {offset:#x}")
        self.used_bytes -= size
        bins, free_sizes, free_ends = self._bins, self._free_sizes, self._free_ends
        end = offset + size
        # A free successor starts at our end; its end tag is overwritten
        # below by the merged block's.
        next_size = free_sizes.pop(end, None)
        if next_size is not None:
            k = next_size.bit_length()
            bin_ = bins[k]
            del bin_[bisect_left(bin_, end)]
            if not bin_:
                self._mask ^= 1 << k
            end += next_size
        # A free predecessor's end tag is our offset; it keeps its start
        # (and its bin slot, when the merge leaves its size class alone).
        prev = free_ends.pop(offset, None)
        if prev is None:
            size = end - offset
            k = size.bit_length()
            insort(bins[k], offset)
            self._mask |= 1 << k
        else:
            k = free_sizes[prev].bit_length()
            offset = prev
            size = end - offset
            if size.bit_length() != k:
                bin_ = bins[k]
                del bin_[bisect_left(bin_, offset)]
                if not bin_:
                    self._mask ^= 1 << k
                k = size.bit_length()
                insort(bins[k], offset)
                self._mask |= 1 << k
        free_sizes[offset] = size
        free_ends[end] = offset

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
        capacity = self.capacity
        if not 0 <= start_offset < capacity:
            raise AllocationError(
                f"offset {start_offset:#x} outside arena [0, {capacity:#x})"
            )
        used, free_sizes = self._used, self._free_sizes
        offset = start_offset
        if offset not in used and offset not in free_sizes:
            # Not a block start (callers pass region starts or 0): find the
            # block that contains it the slow way.
            offset = next(b.offset for b in self.blocks() if start_offset < b.end)
        limit = offset + self._round_up(size)
        victims: list[int] = []
        while offset < capacity:
            block_size = used.get(offset)
            if block_size is None:
                block_size = free_sizes[offset]
            else:
                victims.append(offset)
            offset += block_size
            if offset >= limit:
                return victims
        return None

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
        used: dict[int, int] = {}
        for offset, size in sorted(self._used.items()):
            if offset != cursor:
                if on_move is not None:
                    on_move(offset, cursor, size)
                moved += 1
            used[cursor] = size
            cursor += size
        self._used = used
        for bin_ in self._bins:
            bin_.clear()
        self._mask = 0
        self._free_sizes.clear()
        self._free_ends.clear()
        if cursor < self.capacity:
            self._free_add(cursor, self.capacity - cursor)
        return moved

    # -- dynamic resizing (Section III-C's "growing or shrinking the base
    # heap"; real deployments would mmap/munmap the tail) -------------------

    def grow(self, new_capacity: int) -> None:
        """Extend the arena to ``new_capacity`` bytes."""
        if new_capacity <= self.capacity:
            raise AllocationError(
                f"grow target {new_capacity} not larger than {self.capacity}"
            )
        bins = self._bins  # keep one bin past the capacity's class
        bins.extend([] for _ in range(new_capacity.bit_length() + 2 - len(bins)))
        tail = self._free_ends.get(self.capacity, self.capacity)
        if tail < self.capacity:
            self._free_remove(tail)
        self._free_add(tail, new_capacity - tail)
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
        tail = self._free_ends.get(self.capacity, self.capacity)
        if tail > new_capacity:  # no free tail reads as one starting at capacity
            raise AllocationError(
                f"cannot shrink to {new_capacity}: tail is occupied "
                f"(free tail starts at {tail})"
            )
        self._free_remove(tail)
        if tail < new_capacity:
            self._free_add(tail, new_capacity - tail)
        self.capacity = new_capacity

    # -- validation (test support) -----------------------------------------

    def check_invariants(self) -> None:
        """Assert the two maps exactly tile the arena without overlap and
        every index (end tags, size-class bins) agrees with them."""
        used, free_sizes, free_ends = self._used, self._free_sizes, self._free_ends
        both = used.keys() & free_sizes.keys()
        if both:
            raise AssertionError(
                f"boundary-tag index files {sorted(both)} as both used and free"
            )
        cursor, live_bytes, previous_free = 0, 0, False
        for offset, size, free in sorted(
            [(offset, size, False) for offset, size in used.items()]
            + [(offset, size, True) for offset, size in free_sizes.items()]
        ):
            block = Block(offset, size, free)
            if offset != cursor:
                raise AssertionError(
                    f"blocks have a gap/overlap at {cursor:#x}: {block!r}"
                )
            if size <= 0:
                raise AssertionError(f"empty block {block!r}")
            if free and previous_free:
                raise AssertionError(f"uncoalesced free blocks at {offset:#x}")
            if free and free_ends.get(block.end) != offset:
                raise AssertionError(f"boundary-tag index has no end tag for {block!r}")
            live_bytes += 0 if free else size
            previous_free = free
            cursor = block.end
        if cursor != self.capacity:
            raise AssertionError(f"blocks cover {cursor} of {self.capacity} bytes")
        if live_bytes != self.used_bytes:
            raise AssertionError(
                f"used-byte counter {self.used_bytes} != actual {live_bytes}"
            )
        if len(free_ends) != len(free_sizes):
            raise AssertionError("boundary-tag index has stale end tags")
        for k, bin_ in enumerate(self._bins):
            if bin_ != sorted(bin_):
                raise AssertionError(f"free bin {k} not offset-sorted: {bin_}")
            for offset in bin_:
                size = free_sizes.get(offset)
                if size is None or size.bit_length() != k:
                    raise AssertionError(
                        f"free block at {offset:#x} filed in wrong bin {k}"
                    )
        if len(self._bins) < self.capacity.bit_length() + 2:
            raise AssertionError("no free bin past the capacity's size class")
        if sum(len(bin_) for bin_ in self._bins) != len(free_sizes):
            raise AssertionError("free bins and free-size map disagree")
        mask = sum(1 << k for k, bin_ in enumerate(self._bins) if bin_)
        if self._mask != mask:
            raise AssertionError(
                f"non-empty-bin mask {self._mask:#b} != the bins' {mask:#b}"
            )

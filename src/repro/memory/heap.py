"""A heap binds a device to an allocator and exposes occupancy telemetry.

One :class:`Heap` per device, preallocated up front (the paper's heaps are a
single large ``malloc`` or DAX ``mmap``). The heap is deliberately dumb: it
hands out offsets and tracks occupancy; *what* lives where is the data
manager's business, and *why* is the policy's.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.memory.allocator import AllocatorStats, FreeListAllocator, FitPolicy
from repro.memory.block import Block
from repro.memory.device import MemoryDevice
from repro.telemetry.counters import TrafficCounters

__all__ = ["Heap"]


class Heap:
    """Allocator + device + traffic counters for one memory pool."""

    def __init__(
        self,
        device: MemoryDevice,
        *,
        alignment: int = 64,
        fit: FitPolicy = "first",
        injector: object | None = None,
    ) -> None:
        self.device = device
        # The fault injector is duck-typed (alloc_fault / on_defragment) so
        # the mechanism layer never imports repro.faults; see
        # docs/robustness.md for the seam contract.
        self.injector = injector
        fault_hook = getattr(injector, "alloc_fault", None)
        self.allocator = FreeListAllocator(
            device.capacity,
            alignment=alignment,
            fit=fit,
            fault_hook=fault_hook,
            label=device.name,
        )
        self.traffic = TrafficCounters(device.name)

    @property
    def name(self) -> str:
        return self.device.name

    @property
    def capacity(self) -> int:
        return self.device.capacity

    @property
    def used_bytes(self) -> int:
        return self.allocator.used_bytes

    @property
    def free_bytes(self) -> int:
        return self.allocator.free_bytes

    def allocate(self, size: int) -> int:
        """Allocate ``size`` bytes; raises a device-tagged OOM on exhaustion
        (the allocator is labelled with the device name)."""
        return self.allocator.allocate(size)

    def free(self, offset: int) -> None:
        self.allocator.free(offset)

    def view(self, offset: int, size: int | None = None) -> np.ndarray:
        """Byte view of an allocation (real-backed devices only)."""
        if size is None:
            size = self.allocator.size_of(offset)
        return self.device.view(offset, size)

    def collect_span(self, start_offset: int, size: int) -> list[int] | None:
        return self.allocator.collect_span(start_offset, size)

    def live_blocks(self) -> Iterator[Block]:
        return self.allocator.live_blocks()

    def stats(self) -> AllocatorStats:
        return self.allocator.stats()

    def grow(self, new_capacity: int) -> None:
        """Extend the heap; real arenas are reallocated preserving contents."""
        self.allocator.grow(new_capacity)
        self.device.resize_arena(new_capacity)
        self.device.capacity = new_capacity

    def shrink(self, new_capacity: int) -> None:
        """Give back the heap tail; compact first if the tail is occupied.

        The allocator refuses (``AllocationError``) while live data sits in
        the truncated tail — :meth:`SharedRuntime.resize` drives the recovery
        ladder to migrate survivors out before retrying. Real arenas are
        reallocated preserving the surviving prefix.
        """
        self.allocator.shrink(new_capacity)
        self.device.resize_arena(new_capacity)
        self.device.capacity = new_capacity

    def tail_live_offsets(self, new_capacity: int) -> list[int]:
        """Offsets of live blocks overlapping ``[new_capacity, capacity)``.

        The survivors a shrink must migrate, in address order.
        """
        return [
            block.offset
            for block in self.allocator.live_blocks()
            if block.offset + block.size > new_capacity
        ]

    def defragment(
        self, on_move: Callable[[int, int, int], None] | None = None
    ) -> int:
        """Compact the heap, moving real data when the device is real.

        ``on_move`` (if given) fires *after* the data move, with
        ``(old_offset, new_offset, size)``, so callers can re-point regions.
        Returns the number of relocated blocks. Matches the paper's
        between-iteration defragmentation ("overhead is negligible compared
        to the iteration time" — it is bookkeeping plus an intra-device
        memmove, not cross-device traffic).
        """

        def mover(old: int, new: int, size: int) -> None:
            if self.device.is_real:
                arena = self.device.view(0, self.capacity)
                source = arena[old : old + size]
                if new + size > old:  # overlapping memmove: stage through a copy
                    source = source.copy()
                arena[new : new + size] = source
            if on_move is not None:
                on_move(old, new, size)

        moved = self.allocator.compact(mover)
        if self.injector is not None:
            # Compaction cures injected fragmentation too — this closes the
            # loop that lets the recovery ladder's defrag rung actually work.
            self.injector.on_defragment(self.name)
        return moved

    def __repr__(self) -> str:
        return f"Heap({self.device!r}, used={self.used_bytes}/{self.capacity})"

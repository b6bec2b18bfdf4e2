"""Memory substrate: devices, heap allocators, and the copy engine.

CachedArrays preallocates one large heap per memory device (Section III-C: "a
single large malloc or a memory map from a DAX file system") and manages all
regions inside it. This subpackage provides that substrate:

* :class:`~repro.memory.device.MemoryDevice` — a DRAM- or NVRAM-class device
  with a bandwidth model and, optionally, a *real* numpy arena so data
  integrity can be verified end to end.
* :class:`~repro.memory.allocator.FreeListAllocator` — a boundary-tag
  first-fit allocator with coalescing, contiguous-span carving (the substrate
  for ``evictfrom``), and compaction (the paper defragments between
  iterations).
* :class:`~repro.memory.heap.Heap` — device + allocator + occupancy telemetry.
* :class:`~repro.memory.copyengine.CopyEngine` — traffic-accounted,
  bandwidth-modelled (and, for real arenas, multi-threaded) bulk copies.
"""

from repro.memory.block import Block
from repro.memory.allocator import AllocatorStats, FreeListAllocator
from repro.memory.device import MemoryDevice, MemoryKind
from repro.memory.heap import Heap
from repro.memory.copyengine import CopyEngine

__all__ = [
    "Block",
    "AllocatorStats",
    "FreeListAllocator",
    "MemoryDevice",
    "MemoryKind",
    "Heap",
    "CopyEngine",
]

"""Heap: allocator + device + defragmentation with data moves."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryError
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.units import KiB


def make(capacity=64 * KiB, real=False) -> Heap:
    return Heap(MemoryDevice.dram(capacity, real=real))


def test_occupancy_tracking():
    heap = make()
    offset = heap.allocate(KiB)
    assert heap.used_bytes == KiB
    assert heap.free_bytes == 63 * KiB
    heap.free(offset)
    assert heap.used_bytes == 0


def test_oom_is_tagged_with_device_name():
    heap = make(KiB)
    with pytest.raises(OutOfMemoryError) as err:
        heap.allocate(2 * KiB)
    assert err.value.device == "DRAM"


def test_view_of_allocation():
    heap = make(real=True)
    offset = heap.allocate(256)
    view = heap.view(offset)
    assert view.shape == (256,)
    view[:] = 7
    assert heap.view(offset, 4).tolist() == [7, 7, 7, 7]


def test_defragment_moves_real_data():
    heap = make(8 * KiB, real=True)
    a = heap.allocate(KiB)
    b = heap.allocate(KiB)
    heap.view(b)[:] = np.arange(KiB, dtype=np.uint8) % 251
    heap.free(a)
    moves = []
    moved = heap.defragment(lambda old, new, size: moves.append((old, new)))
    assert moved == 1
    assert moves == [(KiB, 0)]
    assert np.array_equal(
        heap.view(0, KiB), np.arange(KiB, dtype=np.uint8) % 251
    )


def test_defragment_overlapping_move_is_safe():
    """Moving a block down by less than its own size must memmove correctly."""
    heap = Heap(MemoryDevice.dram(8 * KiB, real=True), alignment=64)
    a = heap.allocate(64)  # tiny hole
    b = heap.allocate(4 * KiB)  # big block right after, moves down by 64
    data = (np.arange(4 * KiB) % 249).astype(np.uint8)
    heap.view(b)[:] = data
    heap.free(a)
    heap.defragment()
    assert np.array_equal(heap.view(0, 4 * KiB), data)


def test_defragment_virtual_heap_only_bookkeeping():
    heap = make(8 * KiB)
    a = heap.allocate(KiB)
    heap.allocate(KiB)
    heap.free(a)
    assert heap.defragment() == 1
    assert heap.stats().external_fragmentation == 0.0


def test_collect_span_passthrough():
    heap = make(8 * KiB)
    offsets = [heap.allocate(KiB) for _ in range(4)]
    assert heap.collect_span(offsets[0], 2 * KiB) == offsets[:2]


def test_live_blocks_in_address_order():
    heap = make(8 * KiB)
    offsets = [heap.allocate(KiB) for _ in range(3)]
    heap.free(offsets[1])
    assert [block.offset for block in heap.live_blocks()] == [0, 2 * KiB]


def test_heap_grow_and_shrink_track_device_capacity():
    heap = make(8 * KiB)
    heap.grow(16 * KiB)
    assert heap.capacity == 16 * KiB
    assert heap.device.capacity == 16 * KiB
    heap.shrink(8 * KiB)
    assert heap.capacity == 8 * KiB


def test_real_heap_resize_preserves_contents():
    heap = make(8 * KiB, real=True)
    offset = heap.allocate(KiB)
    heap.view(offset, KiB)[:] = 0xAB
    heap.grow(16 * KiB)
    assert heap.capacity == 16 * KiB
    assert bytes(heap.view(offset, KiB)) == b"\xab" * KiB
    heap.shrink(2 * KiB)
    assert heap.capacity == 2 * KiB
    assert heap.device.capacity == 2 * KiB
    assert bytes(heap.view(offset, KiB)) == b"\xab" * KiB


def test_real_heap_shrink_refuses_occupied_tail():
    from repro.errors import AllocationError

    heap = make(8 * KiB, real=True)
    heap.allocate(6 * KiB)
    with pytest.raises(AllocationError):
        heap.shrink(4 * KiB)



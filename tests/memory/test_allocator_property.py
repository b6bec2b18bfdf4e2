"""Property-based allocator tests: invariants under arbitrary op sequences."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import OutOfMemoryError
from repro.memory.allocator import FreeListAllocator

CAPACITY = 1 << 16


@st.composite
def op_sequences(draw):
    """A list of (op, size-or-index) operations."""
    n = draw(st.integers(min_value=1, max_value=60))
    ops = []
    for _ in range(n):
        if draw(st.booleans()):
            ops.append(("alloc", draw(st.integers(min_value=1, max_value=8192))))
        else:
            ops.append(("free", draw(st.integers(min_value=0, max_value=100))))
    return ops


@given(op_sequences(), st.sampled_from(["first", "best"]))
@settings(max_examples=60, deadline=None)
def test_random_alloc_free_preserves_invariants(ops, fit):
    allocator = FreeListAllocator(CAPACITY, fit=fit)
    live: list[int] = []
    for op, value in ops:
        if op == "alloc":
            try:
                live.append(allocator.allocate(value))
            except OutOfMemoryError:
                pass
        elif live:
            allocator.free(live.pop(value % len(live)))
        allocator.check_invariants()
    # Everything freed -> arena returns to one free block.
    for offset in live:
        allocator.free(offset)
    stats = allocator.stats()
    assert stats.used_bytes == 0
    assert stats.free_blocks == 1
    assert stats.largest_free_block == CAPACITY


@given(op_sequences())
@settings(max_examples=40, deadline=None)
def test_no_allocation_overlap(ops):
    allocator = FreeListAllocator(CAPACITY)
    live: dict[int, int] = {}
    for op, value in ops:
        if op == "alloc":
            try:
                offset = allocator.allocate(value)
            except OutOfMemoryError:
                continue
            size = allocator.size_of(offset)
            for other, other_size in live.items():
                assert offset + size <= other or other + other_size <= offset
            live[offset] = size
        elif live:
            key = list(live)[value % len(live)]
            allocator.free(key)
            del live[key]


@given(op_sequences())
@settings(max_examples=40, deadline=None)
def test_compaction_preserves_liveness_and_sizes(ops):
    allocator = FreeListAllocator(CAPACITY)
    live: dict[int, int] = {}  # offset -> size
    for op, value in ops:
        if op == "alloc":
            try:
                offset = allocator.allocate(value)
                live[offset] = allocator.size_of(offset)
            except OutOfMemoryError:
                pass
        elif live:
            key = list(live)[value % len(live)]
            allocator.free(key)
            del live[key]
    moves: dict[int, int] = {}
    allocator.compact(lambda old, new, size: moves.__setitem__(old, new))
    allocator.check_invariants()
    survivors = {moves.get(offset, offset): size for offset, size in live.items()}
    assert sum(survivors.values()) == allocator.used_bytes
    for offset, size in survivors.items():
        assert allocator.size_of(offset) == size
    # Compacted: one free block (if any), no fragmentation.
    assert allocator.stats().external_fragmentation == 0.0


@given(
    st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=30),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_collect_span_victims_make_room(sizes, data):
    """Freeing every victim of a span makes a contiguous hole >= requested."""
    allocator = FreeListAllocator(CAPACITY)
    offsets = []
    for size in sizes:
        try:
            offsets.append(allocator.allocate(size))
        except OutOfMemoryError:
            break
    if not offsets:
        return
    start = data.draw(st.sampled_from(offsets))
    request = data.draw(st.integers(min_value=1, max_value=16384))
    victims = allocator.collect_span(start, request)
    if victims is None:
        return
    for offset in victims:
        allocator.free(offset)
    assert allocator.stats().largest_free_block >= request
    allocator.check_invariants()


@st.composite
def resize_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(["alloc", "free", "grow", "shrink", "compact"])
        )
        ops.append((kind, draw(st.integers(min_value=1, max_value=8192))))
    return ops


def _reference_block_index(allocator, offset: int) -> int:
    """The naive linear walk ``_block_index_at``'s bisect must agree with."""
    for index, block in enumerate(allocator._blocks):
        if block.offset <= offset < block.end:
            return index
    raise AssertionError(f"no block contains {offset:#x}")


def _assert_address_index_matches_linear_scan(allocator, probe: int) -> None:
    """Every block's first, middle and last byte, plus one arbitrary address."""
    offsets = {probe % allocator.capacity}
    for block in allocator._blocks:
        offsets.update(
            (block.offset, block.offset + block.size // 2, block.end - 1)
        )
    for offset in offsets:
        assert allocator._block_index_at(offset) == _reference_block_index(
            allocator, offset
        ), f"address index disagrees with the block list at {offset:#x}"


@given(resize_sequences())
@settings(max_examples=40, deadline=None)
def test_grow_shrink_preserve_invariants(ops):
    from repro.errors import AllocationError

    allocator = FreeListAllocator(CAPACITY)
    live: list[int] = []
    for kind, value in ops:
        try:
            if kind == "alloc":
                live.append(allocator.allocate(value))
            elif kind == "free" and live:
                allocator.free(live.pop(value % len(live)))
            elif kind == "grow":
                allocator.grow(allocator.capacity + value * 64)
            elif kind == "shrink":
                allocator.shrink(max(64, allocator.capacity - value * 64))
            elif kind == "compact":
                moves: dict[int, int] = {}
                allocator.compact(
                    lambda old, new, size: moves.__setitem__(old, new)
                )
                live = [moves.get(offset, offset) for offset in live]
        except AllocationError:
            pass  # rejected resizes/allocs must leave state untouched
        allocator.check_invariants()
        _assert_address_index_matches_linear_scan(allocator, value * 7919)
    # Used bytes always remain addressable.
    for offset in live:
        assert offset + allocator.size_of(offset) <= allocator.capacity


def test_check_invariants_catches_a_desynchronised_address_index():
    allocator = FreeListAllocator(CAPACITY)
    first = allocator.allocate(4096)
    allocator.allocate(4096)
    allocator.free(first)
    allocator.check_invariants()
    for damage in (
        lambda offsets: offsets.pop(),  # a split the index never saw
        lambda offsets: offsets.insert(1, 64),  # a coalesce it never saw
        lambda offsets: offsets.__setitem__(1, offsets[1] + 64),  # stale start
    ):
        good = list(allocator._offsets)
        damage(allocator._offsets)
        with pytest.raises(AssertionError, match="address index"):
            allocator.check_invariants()
        allocator._offsets[:] = good
    allocator.check_invariants()


def _reference_find_fit(allocator, size: int, fit: str) -> int | None:
    """The naive O(n) scan over the address-ordered block list.

    This is the seed implementation's placement rule, kept as the executable
    specification for the size-class-indexed ``_find_fit``: first fit takes
    the lowest-offset free block that fits; best fit takes the smallest
    fitting block, with the strict ``<`` breaking size ties toward the
    earlier (lower-offset) block. The indexed allocator must reproduce these
    choices exactly — placement determinism is what keeps every simulated
    virtual-time result bit-identical across the optimization.
    """
    best = None
    for block in allocator._blocks:
        if not block.free or block.size < size:
            continue
        if fit == "first":
            return block.offset
        if best is None or block.size < best.size:
            best = block
    return None if best is None else best.offset


@given(op_sequences(), st.sampled_from(["first", "best"]))
@settings(max_examples=60, deadline=None)
def test_indexed_fit_matches_linear_scan(ops, fit):
    allocator = FreeListAllocator(CAPACITY, fit=fit)
    live: list[int] = []
    for op, value in ops:
        if op == "alloc":
            rounded = allocator._round_up(value)
            expected = _reference_find_fit(allocator, rounded, fit)
            try:
                offset = allocator.allocate(value)
            except OutOfMemoryError:
                assert expected is None
            else:
                assert offset == expected
                live.append(offset)
        elif live:
            allocator.free(live.pop(value % len(live)))

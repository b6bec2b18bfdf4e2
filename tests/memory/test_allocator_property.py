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


def _apply_resize_ops(allocator, ops):
    """Run ``ops`` on ``allocator``, yielding each op's value after it ran."""
    from repro.errors import AllocationError

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
        yield value
    # Used bytes always remain addressable.
    for offset in live:
        assert offset + allocator.size_of(offset) <= allocator.capacity


@given(resize_sequences())
@settings(max_examples=40, deadline=None)
def test_grow_shrink_preserve_invariants(ops):
    allocator = FreeListAllocator(CAPACITY)
    for _ in _apply_resize_ops(allocator, ops):
        allocator.check_invariants()


def _reference_collect_span(allocator, start: int, size: int) -> list[int] | None:
    """The naive walk over :meth:`blocks` ``collect_span`` must agree with:
    from the block containing ``start``, gather allocations until the span
    reaches ``size`` (rounded), or ``None`` at the arena end."""
    rounded = allocator._round_up(size)
    span_start = None
    victims: list[int] = []
    for block in allocator.blocks():
        if span_start is None:
            if block.end <= start:
                continue
            span_start = block.offset
        if not block.free:
            victims.append(block.offset)
        if block.end - span_start >= rounded:
            return victims
    return None


@given(resize_sequences())
@settings(max_examples=40, deadline=None)
def test_collect_span_from_any_address_matches_a_naive_walk(ops):
    """Every block's first, middle and last byte, plus one arbitrary address,
    as the span start — the interior ones take ``collect_span``'s slow
    containing-block lookup."""
    allocator = FreeListAllocator(CAPACITY)
    for value in _apply_resize_ops(allocator, ops):
        starts = {value * 7919 % allocator.capacity}
        for block in allocator.blocks():
            starts.update(
                (block.offset, block.offset + block.size // 2, block.end - 1)
            )
        for start in starts:
            for size in (1, value * 64, allocator.capacity):
                assert allocator.collect_span(
                    start, size
                ) == _reference_collect_span(allocator, start, size), (
                    f"collect_span({start:#x}, {size}) disagrees with the walk"
                )


def test_check_invariants_catches_a_damaged_boundary_tag_index():
    allocator = FreeListAllocator(CAPACITY)
    first = allocator.allocate(4096)
    second = allocator.allocate(4096)
    allocator.free(first)
    allocator.check_invariants()
    ends = allocator._free_ends

    def drop_an_end_tag():  # a split or merge the tags never saw
        offset = ends.pop(4096)
        return lambda: ends.__setitem__(4096, offset)

    def add_a_stale_end_tag():  # a coalesce that left an old tag behind
        ends[2048] = 0
        return lambda: ends.pop(2048)

    def file_an_offset_as_used_and_free():
        allocator._free_sizes[second] = allocator.size_of(second)
        return lambda: allocator._free_sizes.pop(second)

    for damage in (drop_an_end_tag, add_a_stale_end_tag,
                   file_an_offset_as_used_and_free):
        repair = damage()
        with pytest.raises(AssertionError, match="boundary-tag index"):
            allocator.check_invariants()
        repair()
        allocator.check_invariants()


def _reference_find_fit(allocator, size: int, fit: str) -> int | None:
    """The naive O(n) scan over the address-ordered :meth:`blocks` view.

    This is the seed implementation's placement rule, kept as the executable
    specification for the size-class-indexed probe in ``allocate``: first
    fit takes the lowest-offset free block that fits; best fit takes the
    smallest fitting block, with the strict ``<`` breaking size ties toward the
    earlier (lower-offset) block. The indexed allocator must reproduce these
    choices exactly — placement determinism is what keeps every simulated
    virtual-time result bit-identical across the optimization.
    """
    best = None
    for block in allocator.blocks():
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

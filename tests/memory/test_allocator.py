"""Free-list allocator: placement, coalescing, spans, compaction."""

import pytest

from repro.errors import AllocationError, OutOfMemoryError
from repro.memory.allocator import FreeListAllocator
from repro.units import KiB


def make(capacity=64 * KiB, **kwargs) -> FreeListAllocator:
    return FreeListAllocator(capacity, **kwargs)


class TestConstruction:
    def test_rejects_bad_capacity(self):
        with pytest.raises(AllocationError):
            make(0)
        with pytest.raises(AllocationError):
            make(-5)

    def test_rejects_bad_alignment(self):
        with pytest.raises(AllocationError):
            make(alignment=0)
        with pytest.raises(AllocationError):
            make(alignment=48)  # not a power of two

    def test_rejects_bad_fit(self):
        with pytest.raises(AllocationError):
            make(fit="worst")  # type: ignore[arg-type]


class TestAllocateFree:
    def test_simple_allocate(self):
        allocator = make()
        offset = allocator.allocate(100)
        assert offset == 0
        assert allocator.used_bytes == 128  # rounded to 64-byte alignment
        allocator.check_invariants()

    def test_alignment_rounding(self):
        allocator = make(alignment=64)
        allocator.allocate(1)
        assert allocator.used_bytes == 64
        second = allocator.allocate(65)
        assert second == 64
        assert allocator.used_bytes == 64 + 128

    def test_sequential_offsets(self):
        allocator = make()
        offsets = [allocator.allocate(KiB) for _ in range(4)]
        assert offsets == [0, KiB, 2 * KiB, 3 * KiB]

    def test_zero_size_rejected(self):
        with pytest.raises(AllocationError):
            make().allocate(0)

    def test_oom_raises_with_details(self):
        allocator = make(4 * KiB)
        allocator.allocate(3 * KiB)
        with pytest.raises(OutOfMemoryError) as err:
            allocator.allocate(2 * KiB)
        assert err.value.requested == 2 * KiB
        assert err.value.free == KiB

    def test_free_reuses_space(self):
        allocator = make(4 * KiB)
        first = allocator.allocate(2 * KiB)
        allocator.allocate(2 * KiB)
        allocator.free(first)
        again = allocator.allocate(2 * KiB)
        assert again == first

    def test_double_free_rejected(self):
        allocator = make()
        offset = allocator.allocate(64)
        allocator.free(offset)
        with pytest.raises(AllocationError):
            allocator.free(offset)

    def test_free_bad_offset_rejected(self):
        allocator = make()
        allocator.allocate(128)
        with pytest.raises(AllocationError):
            allocator.free(64)  # interior of an allocation, not its start

    def test_size_of(self):
        allocator = make()
        offset = allocator.allocate(100)
        assert allocator.size_of(offset) == 128
        with pytest.raises(AllocationError):
            allocator.size_of(9999)


class TestCoalescing:
    def test_adjacent_frees_merge(self):
        allocator = make(4 * KiB)
        a = allocator.allocate(KiB)
        b = allocator.allocate(KiB)
        c = allocator.allocate(KiB)
        allocator.allocate(KiB)  # fill the arena
        allocator.free(a)
        allocator.free(c)
        assert allocator.stats().free_blocks == 2
        allocator.free(b)  # merges with both neighbours
        assert allocator.stats().free_blocks == 1
        assert allocator.stats().largest_free_block == 3 * KiB
        allocator.check_invariants()

    def test_full_free_restores_single_block(self):
        allocator = make(8 * KiB)
        offsets = [allocator.allocate(KiB) for _ in range(8)]
        for offset in offsets:
            allocator.free(offset)
        stats = allocator.stats()
        assert stats.free_blocks == 1
        assert stats.largest_free_block == 8 * KiB
        assert stats.external_fragmentation == 0.0


class TestFitPolicies:
    def test_first_fit_takes_first_hole(self):
        allocator = make(8 * KiB, fit="first")
        a = allocator.allocate(2 * KiB)
        allocator.allocate(KiB)
        c = allocator.allocate(KiB)
        allocator.allocate(KiB)
        allocator.free(a)  # 2 KiB hole at 0
        allocator.free(c)  # 1 KiB hole at 3 KiB
        assert allocator.allocate(KiB) == 0

    def test_best_fit_takes_tightest_hole(self):
        allocator = make(8 * KiB, fit="best")
        a = allocator.allocate(2 * KiB)
        allocator.allocate(KiB)
        c = allocator.allocate(KiB)
        allocator.allocate(KiB)
        allocator.free(a)
        allocator.free(c)
        assert allocator.allocate(KiB) == 3 * KiB


class TestSpans:
    def test_span_in_free_space_has_no_victims(self):
        allocator = make(8 * KiB)
        offset = allocator.allocate(KiB)
        allocator.free(offset)
        assert allocator.collect_span(0, KiB) == []

    def test_span_lists_blocking_allocations(self):
        allocator = make(8 * KiB)
        offsets = [allocator.allocate(KiB) for _ in range(8)]
        victims = allocator.collect_span(offsets[2], 3 * KiB)
        assert victims == [offsets[2], offsets[3], offsets[4]]

    def test_span_mixes_free_gaps(self):
        allocator = make(8 * KiB)
        offsets = [allocator.allocate(KiB) for _ in range(8)]
        allocator.free(offsets[3])
        victims = allocator.collect_span(offsets[2], 3 * KiB)
        assert victims == [offsets[2], offsets[4]]

    def test_span_hitting_arena_end_returns_none(self):
        allocator = make(8 * KiB)
        offsets = [allocator.allocate(KiB) for _ in range(8)]
        assert allocator.collect_span(offsets[6], 4 * KiB) is None

    def test_span_from_interior_offset_starts_at_block(self):
        allocator = make(8 * KiB)
        offset = allocator.allocate(2 * KiB)
        victims = allocator.collect_span(offset + 100, KiB)
        assert victims == [offset]

    def test_span_bad_offset(self):
        allocator = make(8 * KiB)
        with pytest.raises(AllocationError):
            allocator.collect_span(9 * KiB, KiB)
        with pytest.raises(AllocationError):
            allocator.collect_span(0, 0)


class TestCompaction:
    def test_compact_moves_live_blocks_down(self):
        allocator = make(8 * KiB)
        offsets = [allocator.allocate(KiB) for _ in range(6)]
        for offset in offsets[::2]:
            allocator.free(offset)
        moves: list[tuple[int, int, int]] = []
        moved = allocator.compact(lambda o, n, s: moves.append((o, n, s)))
        assert moved == 3
        # Survivors are offsets[1], [3], [5] -> now at 0, 1K, 2K.
        assert [(o, n) for o, n, _ in moves] == [
            (KiB, 0),
            (3 * KiB, KiB),
            (5 * KiB, 2 * KiB),
        ]
        stats = allocator.stats()
        assert stats.free_blocks == 1
        assert stats.largest_free_block == 5 * KiB
        allocator.check_invariants()

    def test_compact_moves_emitted_in_safe_order(self):
        """Each move's destination never overlaps a not-yet-moved source."""
        allocator = make(16 * KiB)
        offsets = [allocator.allocate(KiB) for _ in range(16)]
        for offset in offsets[::2]:
            allocator.free(offset)
        moves = []
        allocator.compact(lambda o, n, s: moves.append((o, n, s)))
        done_up_to = 0
        for old, new, size in moves:
            assert new <= old
            assert new >= done_up_to  # destinations strictly ascend
            done_up_to = new + size

    def test_compact_noop_when_compacted(self):
        allocator = make(8 * KiB)
        allocator.allocate(KiB)
        allocator.allocate(KiB)
        assert allocator.compact() == 0

    def test_compact_updates_index(self):
        allocator = make(8 * KiB)
        a = allocator.allocate(KiB)
        b = allocator.allocate(KiB)
        allocator.free(a)
        allocator.compact()
        assert allocator.size_of(0) == KiB
        with pytest.raises(AllocationError):
            allocator.size_of(b)
        allocator.free(0)
        allocator.check_invariants()


class TestStats:
    def test_fragmentation_metric(self):
        allocator = make(8 * KiB)
        offsets = [allocator.allocate(KiB) for _ in range(8)]
        for offset in offsets[::2]:
            allocator.free(offset)
        stats = allocator.stats()
        assert stats.free_bytes == 4 * KiB
        assert stats.largest_free_block == KiB
        assert stats.external_fragmentation == pytest.approx(0.75)

    def test_stats_counts(self):
        allocator = make(8 * KiB)
        allocator.allocate(KiB)
        allocator.allocate(KiB)
        stats = allocator.stats()
        assert stats.live_allocations == 2
        assert stats.used_bytes == 2 * KiB
        assert stats.capacity == 8 * KiB


class TestDynamicResizing:
    def test_grow_extends_free_tail(self):
        allocator = make(4 * KiB)
        allocator.allocate(KiB)
        allocator.grow(8 * KiB)
        assert allocator.capacity == 8 * KiB
        assert allocator.stats().largest_free_block == 7 * KiB
        allocator.check_invariants()

    def test_grow_appends_block_when_tail_used(self):
        allocator = make(4 * KiB)
        allocator.allocate(4 * KiB)  # arena completely full
        allocator.grow(6 * KiB)
        assert allocator.allocate(2 * KiB) == 4 * KiB
        allocator.check_invariants()

    def test_grow_must_increase(self):
        allocator = make(4 * KiB)
        with pytest.raises(AllocationError):
            allocator.grow(4 * KiB)

    def test_shrink_free_tail(self):
        allocator = make(8 * KiB)
        allocator.allocate(2 * KiB)
        allocator.shrink(4 * KiB)
        assert allocator.capacity == 4 * KiB
        assert allocator.free_bytes == 2 * KiB
        allocator.check_invariants()

    def test_shrink_occupied_tail_rejected(self):
        allocator = make(8 * KiB)
        offsets = [allocator.allocate(2 * KiB) for _ in range(4)]
        with pytest.raises(AllocationError):
            allocator.shrink(4 * KiB)
        # After compaction-by-freeing the tail, shrinking succeeds.
        allocator.free(offsets[2])
        allocator.free(offsets[3])
        allocator.shrink(4 * KiB)
        allocator.check_invariants()

    def test_shrink_exact_tail_block(self):
        allocator = make(8 * KiB)
        allocator.allocate(4 * KiB)
        allocator.shrink(4 * KiB)
        assert allocator.free_bytes == 0
        allocator.check_invariants()

    def test_grow_then_shrink_roundtrip(self):
        allocator = make(4 * KiB)
        allocator.grow(16 * KiB)
        allocator.shrink(4 * KiB)
        assert allocator.capacity == 4 * KiB
        assert allocator.stats().largest_free_block == 4 * KiB

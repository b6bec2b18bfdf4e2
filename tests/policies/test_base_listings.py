"""Listing 1 (evict) and Listing 2 (prefetch) behaviour against the DM API."""

import inspect

import pytest

from repro.errors import ConfigurationError, ObjectStateError, OutOfMemoryError
from repro.policies import base
from repro.policies.base import evict_object, prefetch_object
from repro.units import KiB

FAST, SLOW = "DRAM", "NVRAM"


def place(manager, size=KiB, device=FAST):
    obj = manager.new_object(size)
    manager.setprimary(obj, manager.allocate(device, size))
    return obj


class TestEvict:
    def test_evict_moves_primary_to_slow(self, manager):
        obj = place(manager)
        assert evict_object(manager, obj, FAST, SLOW)
        assert manager.getprimary(obj).device_name == SLOW
        # Fast region was freed: fast heap empty again.
        assert manager.heap(FAST).used_bytes == 0

    def test_evict_noop_when_already_slow(self, manager):
        obj = place(manager, device=SLOW)
        assert not evict_object(manager, obj, FAST, SLOW)
        assert manager.heap(SLOW).used_bytes == KiB

    def test_evict_copies_when_no_linked_region(self, manager):
        obj = place(manager)
        evict_object(manager, obj, FAST, SLOW)
        assert manager.heap(SLOW).traffic.write_bytes == KiB

    def test_evict_elides_copy_for_clean_linked_secondary(self, manager):
        """Listing 1 lines 11-13: clean + linked -> no copy."""
        obj = place(manager)
        slow = manager.allocate(SLOW, KiB)
        manager.link(manager.getprimary(obj), slow)
        manager.setdirty(manager.getprimary(obj), False)
        written_before = manager.heap(SLOW).traffic.write_bytes
        evict_object(manager, obj, FAST, SLOW)
        assert manager.heap(SLOW).traffic.write_bytes == written_before
        assert manager.getprimary(obj) is slow

    def test_evict_copies_when_dirty(self, manager):
        obj = place(manager)
        slow = manager.allocate(SLOW, KiB)
        manager.link(manager.getprimary(obj), slow)
        manager.setdirty(manager.getprimary(obj), True)
        evict_object(manager, obj, FAST, SLOW)
        assert manager.heap(SLOW).traffic.write_bytes == KiB
        assert not manager.isdirty(slow)

    def test_evict_unlinks_before_freeing(self, manager):
        obj = place(manager)
        slow = manager.allocate(SLOW, KiB)
        manager.link(manager.getprimary(obj), slow)
        evict_object(manager, obj, FAST, SLOW)
        assert obj.region_on(FAST) is None
        assert list(obj.regions()) == [slow]
        manager.check_invariants()


class TestPrefetch:
    def test_prefetch_moves_primary_to_fast(self, manager):
        obj = place(manager, device=SLOW)
        region = prefetch_object(manager, obj, FAST, SLOW)
        assert region is not None and region.device_name == FAST
        assert manager.getprimary(obj) is region

    def test_prefetch_keeps_slow_copy_linked_and_clean(self, manager):
        obj = place(manager, device=SLOW)
        slow = manager.getprimary(obj)
        prefetch_object(manager, obj, FAST, SLOW)
        assert obj.region_on(SLOW) is slow
        assert not manager.isdirty(slow)
        assert not manager.isdirty(manager.getprimary(obj))

    def test_prefetch_noop_when_already_fast(self, manager):
        obj = place(manager, device=FAST)
        read_before = manager.heap(SLOW).traffic.read_bytes
        region = prefetch_object(manager, obj, FAST, SLOW)
        assert region is manager.getprimary(obj)
        assert manager.heap(SLOW).traffic.read_bytes == read_before

    def test_prefetch_unforced_gives_up_when_full(self, manager):
        filler = place(manager, size=63 * KiB, device=FAST)
        obj = place(manager, size=4 * KiB, device=SLOW)
        assert prefetch_object(manager, obj, FAST, SLOW, force=False) is None
        assert manager.getprimary(obj).device_name == SLOW
        assert not filler.retired

    def test_prefetch_forced_without_callbacks_raises(self, manager):
        place(manager, size=63 * KiB, device=FAST)
        obj = place(manager, size=4 * KiB, device=SLOW)
        with pytest.raises(OutOfMemoryError):
            prefetch_object(manager, obj, FAST, SLOW, force=True)

    def test_prefetch_forced_evicts_via_callbacks(self, manager):
        victim = place(manager, size=60 * KiB, device=FAST)  # fills fast heap
        obj = place(manager, size=16 * KiB, device=SLOW)

        def find_start(size):
            return manager.getprimary(victim)

        def evict(region):
            evict_object(manager, manager.parent(region), FAST, SLOW)

        region = prefetch_object(
            manager,
            obj,
            FAST,
            SLOW,
            force=True,
            find_start=find_start,
            evict_callback=evict,
        )
        assert region is not None and region.device_name == FAST
        assert manager.getprimary(victim).device_name == SLOW

    def test_prefetch_forced_no_candidate_returns_none(self, manager):
        place(manager, size=63 * KiB, device=FAST)
        obj = place(manager, size=4 * KiB, device=SLOW)
        region = prefetch_object(
            manager,
            obj,
            FAST,
            SLOW,
            force=True,
            find_start=lambda size: None,
            evict_callback=lambda region: None,
        )
        assert region is None


def retired(manager):
    obj = place(manager, device=SLOW)
    manager.destroy_object(obj)
    return obj


# What Listing 2's first two lines validate, and the parent's wording for it:
# case -> (operand, fast, slow, exception, message).
UNKNOWN_HBM = r"^unknown device 'HBM'; have \['DRAM', 'NVRAM'\]$"
REJECTED_OPERANDS = {
    "retired": (
        retired, FAST, SLOW,
        ObjectStateError, r"retired primary on nowhere\) was retired and cannot be used$",
    ),
    "no primary": (
        lambda manager: manager.new_object(KiB), FAST, SLOW,
        ObjectStateError, r" B, primary on nowhere\) has no primary region$",
    ),
    "unknown slow device, object in fast": (
        lambda manager: place(manager, device=FAST), FAST, "HBM",
        ConfigurationError, UNKNOWN_HBM,
    ),
    "unknown slow device, object in slow": (
        lambda manager: place(manager, device=SLOW), FAST, "HBM",
        ConfigurationError, UNKNOWN_HBM,
    ),
    "unknown fast device, object in slow": (
        lambda manager: place(manager, device=SLOW), "HBM", SLOW,
        ConfigurationError, UNKNOWN_HBM,
    ),
}


def check_prefetch_rejects(manager, case, prefetch=prefetch_object):
    operand, fast, slow, error, message = REJECTED_OPERANDS[case]
    obj = operand(manager)
    before = manager.heap(FAST).used_bytes, manager.heap(SLOW).used_bytes
    with pytest.raises(error, match=message):
        prefetch(manager, obj, fast, slow)
    assert (manager.heap(FAST).used_bytes, manager.heap(SLOW).used_bytes) == before


@pytest.mark.parametrize("case", sorted(REJECTED_OPERANDS))
def test_prefetch_validates_its_operand_before_moving_anything(manager, case):
    check_prefetch_rejects(manager, case)


def test_operand_checks_catch_a_prefetch_that_skips_in_device(manager):
    """Seeded mutation: returning the already-read primary must not cost the
    ``in_device`` validation — a copy without it fails the check above."""
    source = inspect.getsource(prefetch_object)
    mutant = source.replace("not dm.in_device(x, slow)", "x.device_name != slow")
    assert mutant != source
    namespace = dict(vars(base))
    exec("from __future__ import annotations\n" + mutant, namespace)
    with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
        check_prefetch_rejects(
            manager, "unknown slow device, object in fast",
            prefetch=namespace["prefetch_object"],
        )


def test_evict_prefetch_roundtrip_preserves_data(manager):
    """Dirty-tracking across a full round trip keeps one source of truth."""
    obj = place(manager, device=FAST)
    manager.setdirty(manager.getprimary(obj), True)
    evict_object(manager, obj, FAST, SLOW)
    prefetch_object(manager, obj, FAST, SLOW)
    evict_object(manager, obj, FAST, SLOW)
    # Second eviction was clean (never written in fast) -> copy elided:
    # NVRAM saw exactly one data write across the whole dance.
    assert manager.heap(SLOW).traffic.write_bytes == KiB
    manager.check_invariants()

"""Every Table II call rejects a freed region, a retired object and an unknown
device with one fixed exception and message — and, when two operands are bad,
names the one it always named.

The table is the contract the mechanism's inline state tests must keep: a
call may test ``freed``/``retired``/device membership however it likes, but
what it raises, and in which order it looks at its operands, stays put.
"""

from dataclasses import dataclass

import pytest

from repro.core.manager import DataManager
from repro.core.object import MemObject, Region
from repro.errors import ConfigurationError, ObjectStateError, RegionStateError
from repro.units import KiB

FAST, SLOW = "DRAM", "NVRAM"
UNKNOWN = "unknown device 'HBM'; have ['DRAM', 'NVRAM']"


@dataclass
class World:
    manager: DataManager
    obj: MemObject  # live, primary on FAST
    live: Region  # obj's primary
    spare: Region  # live, unowned, on SLOW
    freed: Region
    freed2: Region
    retired: MemObject


def world(manager):
    obj = manager.new_object(KiB)
    live = manager.allocate(FAST, KiB)
    manager.setprimary(obj, live)
    spare = manager.allocate(SLOW, KiB)
    freed, freed2 = manager.allocate(FAST, KiB), manager.allocate(SLOW, KiB)
    manager.free(freed)
    manager.free(freed2)
    retired = manager.new_object(KiB)
    manager.setprimary(retired, manager.allocate(SLOW, KiB))
    manager.destroy_object(retired)
    return World(manager, obj, live, spare, freed, freed2, retired)


def freed(region):
    return f"{region!r} was already freed"


def retired(obj):
    return f"{obj!r} was retired and cannot be used"


def evict_nothing(region):
    raise AssertionError("a rejected evictfrom must not reach its callback")


FREED = (RegionStateError, lambda w: freed(w.freed))

# case -> (call, exception, message): the call runs on a World and must raise
# exactly that exception with exactly that message.
REJECTED_CALLS = {
    "copyto, freed source": (
        lambda w: w.manager.copyto(w.spare, w.freed), *FREED,
    ),
    "copyto, freed destination": (
        lambda w: w.manager.copyto(w.freed, w.live), *FREED,
    ),
    "copyto, both freed, names the source": (
        lambda w: w.manager.copyto(w.freed2, w.freed), *FREED,
    ),
    "setprimary, retired object": (
        lambda w: w.manager.setprimary(w.retired, w.spare),
        ObjectStateError, lambda w: retired(w.retired),
    ),
    "setprimary, freed region": (
        lambda w: w.manager.setprimary(w.obj, w.freed), *FREED,
    ),
    "setprimary, retired object and freed region, names the object": (
        lambda w: w.manager.setprimary(w.retired, w.freed),
        ObjectStateError, lambda w: retired(w.retired),
    ),
    "setdirty, freed region": (
        lambda w: w.manager.setdirty(w.freed, True), *FREED,
    ),
    "isdirty, freed region": (lambda w: w.manager.isdirty(w.freed), *FREED),
    "in_device, freed region": (
        lambda w: w.manager.in_device(w.freed, FAST), *FREED,
    ),
    "in_device, unknown device": (
        lambda w: w.manager.in_device(w.live, "HBM"),
        ConfigurationError, lambda w: UNKNOWN,
    ),
    "in_device, freed region and unknown device, names the region": (
        lambda w: w.manager.in_device(w.freed, "HBM"), *FREED,
    ),
    "getlinked, freed region": (
        lambda w: w.manager.getlinked(w.freed, SLOW), *FREED,
    ),
    "getlinked, unknown device": (
        lambda w: w.manager.getlinked(w.live, "HBM"),
        ConfigurationError, lambda w: UNKNOWN,
    ),
    "getlinked, freed region and unknown device, names the region": (
        lambda w: w.manager.getlinked(w.freed, "HBM"), *FREED,
    ),
    "sizeof, freed region": (lambda w: w.manager.sizeof(w.freed), *FREED),
    "sizeof, retired object": (
        lambda w: w.manager.sizeof(w.retired),
        ObjectStateError, lambda w: retired(w.retired),
    ),
    "link, freed first": (lambda w: w.manager.link(w.freed, w.spare), *FREED),
    "link, freed second": (lambda w: w.manager.link(w.live, w.freed), *FREED),
    "link, both freed, names the first": (
        lambda w: w.manager.link(w.freed, w.freed2), *FREED,
    ),
    "unlink, freed first": (
        lambda w: w.manager.unlink(w.freed, w.live), *FREED,
    ),
    "unlink, freed second": (
        lambda w: w.manager.unlink(w.live, w.freed), *FREED,
    ),
    "unlink, both freed, names the first": (
        lambda w: w.manager.unlink(w.freed, w.freed2), *FREED,
    ),
    "allocate, unknown device": (
        lambda w: w.manager.allocate("HBM", KiB),
        ConfigurationError, lambda w: UNKNOWN,
    ),
    "free, freed region": (lambda w: w.manager.free(w.freed), *FREED),
    "parent, freed region": (lambda w: w.manager.parent(w.freed), *FREED),
    "span_victims, freed start": (
        lambda w: w.manager.span_victims(FAST, w.freed, KiB), *FREED,
    ),
    "span_victims, unknown device": (
        lambda w: w.manager.span_victims("HBM", w.live, KiB),
        ConfigurationError, lambda w: UNKNOWN,
    ),
    "span_victims, freed start and unknown device, names the start": (
        lambda w: w.manager.span_victims("HBM", w.freed, KiB), *FREED,
    ),
    "span_victims, start on another device": (
        lambda w: w.manager.span_victims(SLOW, w.live, KiB),
        RegionStateError, lambda w: f"{w.live!r} is not on device 'NVRAM'",
    ),
    "evictfrom, freed start": (
        lambda w: w.manager.evictfrom(FAST, w.freed, KiB, evict_nothing),
        *FREED,
    ),
    "evictfrom, unknown device": (
        lambda w: w.manager.evictfrom("HBM", w.live, KiB, evict_nothing),
        ConfigurationError, lambda w: UNKNOWN,
    ),
    "evictfrom, freed start and unknown device, names the start": (
        lambda w: w.manager.evictfrom("HBM", w.freed, KiB, evict_nothing),
        *FREED,
    ),
    "evictfrom, start on another device": (
        lambda w: w.manager.evictfrom(SLOW, w.live, KiB, evict_nothing),
        RegionStateError, lambda w: f"{w.live!r} is not on device 'NVRAM'",
    ),
    "attach, freed region": (
        lambda w: w.obj.attach(w.freed, primary=False), *FREED,
    ),
    "attach as primary, freed region": (
        lambda w: w.obj.attach(w.freed, primary=True), *FREED,
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CALLS))
def test_a_rejected_call_raises_its_fixed_error_and_changes_nothing(manager, case):
    call, error, message = REJECTED_CALLS[case]
    w = world(manager)
    before = {
        name: (heap.used_bytes, heap.traffic.read_bytes, heap.traffic.write_bytes)
        for name, heap in manager.heaps.items()
    }
    primary, regions = w.obj.primary, list(w.obj.regions())
    with pytest.raises(error) as caught:
        call(w)
    assert type(caught.value) is error
    assert str(caught.value) == message(w)
    assert {
        name: (heap.used_bytes, heap.traffic.read_bytes, heap.traffic.write_bytes)
        for name, heap in manager.heaps.items()
    } == before
    assert w.obj.primary is primary and list(w.obj.regions()) == regions
    assert w.spare.parent is None and not w.live.dirty
    manager.check_invariants()

"""The reference policy: L/P toggles, LRU victims, invariant, stats."""

import pickle

import pytest

from repro.core.manager import DataManager
from repro.core.policy_api import AccessIntent
from repro.errors import ConfigurationError, ObjectStateError
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.policies.optimizing import OptimizingPolicy, PolicyStats
from repro.sim.clock import SimClock
from repro.units import KiB


def build(fast_capacity=64 * KiB, **policy_kwargs):
    heaps = {
        "DRAM": Heap(MemoryDevice.dram(fast_capacity)),
        "NVRAM": Heap(MemoryDevice.nvram(1024 * KiB)),
    }
    manager = DataManager(heaps, CopyEngine(SimClock()))
    policy = OptimizingPolicy(local_alloc=True, **policy_kwargs)
    policy.bind(manager)
    return manager, policy


def new_obj(manager, policy, size=16 * KiB, name=""):
    obj = manager.new_object(size, name)
    policy.place(obj)
    return obj


def test_fast_and_slow_must_differ():
    with pytest.raises(ConfigurationError):
        OptimizingPolicy(fast="DRAM", slow="DRAM")


def test_bind_validates_devices():
    heaps = {"DRAM": Heap(MemoryDevice.dram(KiB))}
    manager = DataManager(heaps, CopyEngine(SimClock()))
    with pytest.raises(ConfigurationError):
        OptimizingPolicy(fast="DRAM", slow="NVRAM").bind(manager)


class TestPlacement:
    def test_local_alloc_places_in_fast(self):
        manager, policy = build()
        obj = new_obj(manager, policy)
        assert manager.getprimary(obj).device_name == "DRAM"
        assert policy.stats.placed_fast == 1

    def test_without_local_alloc_places_in_slow(self):
        manager, policy = build()
        policy.local_alloc = False
        obj = new_obj(manager, policy)
        assert manager.getprimary(obj).device_name == "NVRAM"
        assert policy.stats.placed_slow == 1

    def test_oversized_object_falls_back_to_slow(self):
        manager, policy = build(fast_capacity=8 * KiB)
        obj = new_obj(manager, policy, size=16 * KiB)
        assert manager.getprimary(obj).device_name == "NVRAM"

    def test_placement_evicts_cold_objects_under_pressure(self):
        manager, policy = build(fast_capacity=64 * KiB)
        old = [new_obj(manager, policy, name=f"old{i}") for i in range(4)]
        fresh = new_obj(manager, policy, name="fresh")
        assert manager.getprimary(fresh).device_name == "DRAM"
        assert policy.stats.evictions >= 1
        assert any(
            manager.getprimary(obj).device_name == "NVRAM" for obj in old
        )

    def test_lru_picks_coldest_victim(self):
        manager, policy = build(fast_capacity=64 * KiB)
        objs = [new_obj(manager, policy, name=f"o{i}") for i in range(4)]
        for obj in objs[1:]:
            policy.will_use(obj)  # o0 is now coldest
        new_obj(manager, policy, name="fresh")
        assert manager.getprimary(objs[0]).device_name == "NVRAM"

    def test_archive_demotes_to_preferred_victim(self):
        manager, policy = build(fast_capacity=64 * KiB)
        objs = [new_obj(manager, policy, name=f"o{i}") for i in range(4)]
        policy.archive(objs[3])  # most-recent becomes coldest
        assert manager.getprimary(objs[3]).device_name == "DRAM"  # no eager move
        new_obj(manager, policy, name="fresh")
        assert manager.getprimary(objs[3]).device_name == "NVRAM"


class TestHints:
    def test_will_write_migrates_to_fast(self):
        manager, policy = build()
        policy.local_alloc = False
        obj = new_obj(manager, policy)
        policy.will_write(obj)
        assert manager.getprimary(obj).device_name == "DRAM"

    def test_will_read_no_prefetch_by_default(self):
        manager, policy = build(prefetch=False)
        policy.local_alloc = False
        obj = new_obj(manager, policy)
        policy.will_read(obj)
        assert manager.getprimary(obj).device_name == "NVRAM"

    def test_will_read_prefetches_when_enabled(self):
        manager, policy = build(prefetch=True)
        policy.local_alloc = False
        obj = new_obj(manager, policy)
        policy.will_read(obj)
        assert manager.getprimary(obj).device_name == "DRAM"
        assert policy.stats.prefetches == 1

    def test_retire_frees_everything(self):
        manager, policy = build()
        obj = new_obj(manager, policy)
        policy.retire(obj)
        assert obj.retired
        assert manager.heap("DRAM").used_bytes == 0
        assert policy.stats.retires == 1


class TestResidency:
    def test_read_intent_stays_in_slow_with_local_alloc(self):
        manager, policy = build()
        policy.local_alloc = False
        policy.local_alloc = True
        obj = manager.new_object(KiB)
        manager.setprimary(obj, manager.allocate("NVRAM", KiB))
        region = policy.ensure_resident(obj, AccessIntent.READ)
        assert region.device_name == "NVRAM"

    def test_read_intent_migrates_in_cache_like_mode(self):
        manager, policy = build()
        policy.local_alloc = False  # CA:0 — cache-like
        obj = new_obj(manager, policy)
        region = policy.ensure_resident(obj, AccessIntent.READ)
        assert region.device_name == "DRAM"

    def test_write_intent_migrates(self):
        manager, policy = build()
        obj = manager.new_object(KiB)
        manager.setprimary(obj, manager.allocate("NVRAM", KiB))
        region = policy.ensure_resident(obj, AccessIntent.WRITE)
        assert region.device_name == "DRAM"

    def test_no_move_path_returns_the_primary_it_read(self):
        manager, policy = build()
        obj = new_obj(manager, policy)
        other = new_obj(manager, policy)
        region = policy.ensure_resident(obj, AccessIntent.WRITE)
        assert region is obj.primary and region.device_name == "DRAM"
        assert [o for _, o in policy.lru.ranked()] == [other, obj]

    def test_write_intent_runs_from_slow_when_no_room_can_be_made(self):
        manager, policy = build(fast_capacity=16 * KiB)
        holder = new_obj(manager, policy, size=16 * KiB)
        holder.pin()
        obj = manager.new_object(KiB)
        manager.setprimary(obj, manager.allocate("NVRAM", KiB))
        region = policy.ensure_resident(obj, AccessIntent.WRITE)
        assert region is obj.primary and region.device_name == "NVRAM"
        holder.unpin()

    @pytest.mark.parametrize("intent", list(AccessIntent))
    @pytest.mark.parametrize("local_alloc", [True, False])
    @pytest.mark.parametrize(
        "retire, message",
        [
            (True, r"retired primary on nowhere\) was retired and cannot be used$"),
            (False, r" B, primary on nowhere\) has no primary region$"),
        ],
        ids=["retired", "no-primary"],
    )
    def test_unusable_operands_are_rejected(self, intent, local_alloc, retire, message):
        manager, policy = build()
        policy.local_alloc = local_alloc
        obj = manager.new_object(KiB)
        if retire:
            policy.place(obj)
            policy.retire(obj)
        with pytest.raises(ObjectStateError, match=message):
            policy.ensure_resident(obj, intent)
        assert obj not in policy.lru

    def test_pinned_objects_never_chosen_as_victims(self):
        manager, policy = build(fast_capacity=32 * KiB)
        a = new_obj(manager, policy, size=16 * KiB, name="a")
        b = new_obj(manager, policy, size=16 * KiB, name="b")
        a.pin()
        b.pin()
        # No unpinned victims -> placement must fall back to slow.
        c = new_obj(manager, policy, size=16 * KiB, name="c")
        assert manager.getprimary(c).device_name == "NVRAM"
        assert manager.getprimary(a).device_name == "DRAM"
        a.unpin()
        b.unpin()


class TestInvariant:
    def test_fast_regions_are_always_primaries(self):
        """The paper's stated policy invariant, after a mixed workload."""
        manager, policy = build(fast_capacity=64 * KiB)
        objs = [new_obj(manager, policy, name=f"o{i}") for i in range(8)]
        for i, obj in enumerate(objs):
            if i % 2:
                policy.archive(obj)
            else:
                policy.will_write(obj)
        policy.check_invariant()
        manager.check_invariants()

    def test_dirty_write_then_eviction_writes_back(self):
        manager, policy = build(fast_capacity=32 * KiB)
        a = new_obj(manager, policy, size=16 * KiB, name="a")
        policy.on_kernel_finish([], [a])  # marks a dirty
        written_before = manager.heap("NVRAM").traffic.write_bytes
        new_obj(manager, policy, size=32 * KiB, name="big")  # evicts a
        assert manager.heap("NVRAM").traffic.write_bytes > written_before

    def test_clean_eviction_elides_writeback(self):
        manager, policy = build(fast_capacity=32 * KiB)
        policy.local_alloc = False  # born in NVRAM, prefetched (linked) copy
        a = new_obj(manager, policy, size=16 * KiB)
        policy.ensure_resident(a, AccessIntent.READ)  # cache-like migrate
        written_before = manager.heap("NVRAM").traffic.write_bytes
        policy.local_alloc = True
        new_obj(manager, policy, size=32 * KiB)  # evicts clean a
        assert manager.heap("NVRAM").traffic.write_bytes == written_before
        assert policy.stats.elided_writebacks >= 1


class TestPolicyStats:
    """Seven plain int fields, read and written without a failed
    attribute lookup on the way."""

    def test_fields_read_and_increment_like_ints(self):
        stats = PolicyStats()
        stats.evictions += 1
        stats.evictions += 2
        stats.retires = 7
        assert (stats.evictions, stats.retires, stats.prefetches) == (3, 7, 0)
        assert stats.as_dict() == {
            **dict.fromkeys(PolicyStats.FIELDS, 0), "evictions": 3, "retires": 7
        }
        assert list(stats.as_dict()) == list(PolicyStats.FIELDS)
        assert repr(stats).startswith("PolicyStats(placed_fast=0, placed_slow=0, ")
        assert "evictions=3" in repr(stats)

    def test_every_field_resolves_on_the_class(self):
        # A field found by the normal lookup never reaches ``__getattr__``:
        # there is none to reach, and an unknown name is an AttributeError.
        assert "__getattr__" not in vars(PolicyStats)
        assert "__setattr__" not in vars(PolicyStats)
        for name in PolicyStats.FIELDS:
            assert name in vars(PolicyStats)
        with pytest.raises(AttributeError):
            PolicyStats().evictoins

    def test_pickles_with_its_counts(self):
        stats = PolicyStats()
        stats.prefetches = 4
        restored = pickle.loads(pickle.dumps(stats))
        assert restored.as_dict() == stats.as_dict()
        restored.prefetches += 1
        assert (restored.prefetches, stats.prefetches) == (5, 4)

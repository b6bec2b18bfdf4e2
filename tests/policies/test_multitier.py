"""Multi-tier policy over DRAM -> CXL -> NVRAM chains (Section VI)."""

import pytest

from repro.core.manager import DataManager
from repro.core.policy_api import AccessIntent
from repro.core.session import Session, SessionConfig
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.policies.multitier import MultiTierPolicy
from repro.sim.bandwidth import TransferKind
from repro.sim.clock import SimClock
from repro.units import KiB, MiB

TIERS = ["DRAM", "CXL", "NVRAM"]


def build(dram=64 * KiB, cxl=128 * KiB, nvram=1 * MiB):
    heaps = {
        "DRAM": Heap(MemoryDevice.dram(dram)),
        "CXL": Heap(MemoryDevice.cxl(cxl)),
        "NVRAM": Heap(MemoryDevice.nvram(nvram)),
    }
    manager = DataManager(heaps, CopyEngine(SimClock()))
    policy = MultiTierPolicy(TIERS)
    policy.bind(manager)
    return manager, policy


def new_obj(manager, policy, size=16 * KiB, name=""):
    obj = manager.new_object(size, name)
    policy.place(obj)
    return obj


class TestConstruction:
    def test_needs_two_tiers(self):
        with pytest.raises(ConfigurationError):
            MultiTierPolicy(["DRAM"])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            MultiTierPolicy(["DRAM", "DRAM"])

    def test_bind_checks_devices(self):
        heaps = {"DRAM": Heap(MemoryDevice.dram(KiB))}
        manager = DataManager(heaps, CopyEngine(SimClock()))
        with pytest.raises(ConfigurationError):
            MultiTierPolicy(["DRAM", "NVRAM"]).bind(manager)


class TestPlacement:
    def test_new_objects_born_on_top(self):
        manager, policy = build()
        obj = new_obj(manager, policy)
        assert manager.getprimary(obj).device_name == "DRAM"

    def test_pressure_demotes_one_tier_down(self):
        manager, policy = build()
        old = [new_obj(manager, policy, name=f"o{i}") for i in range(4)]
        new_obj(manager, policy, name="fresh")
        devices = {manager.getprimary(obj).device_name for obj in old}
        assert "CXL" in devices  # victim went to the middle tier, not NVRAM
        assert "NVRAM" not in devices

    def test_cascading_demotion_reaches_bottom(self):
        manager, policy = build(dram=32 * KiB, cxl=32 * KiB)
        objs = [new_obj(manager, policy, name=f"o{i}") for i in range(6)]
        tiers = [manager.getprimary(obj).device_name for obj in objs]
        assert "NVRAM" in tiers  # overflow cascaded DRAM -> CXL -> NVRAM
        policy.check_invariant()
        manager.check_invariants()

    def test_oversized_object_falls_to_lower_tier(self):
        manager, policy = build(dram=8 * KiB)
        obj = new_obj(manager, policy, size=16 * KiB)
        assert manager.getprimary(obj).device_name in ("CXL", "NVRAM")

    def test_exhausted_everything_raises(self):
        manager, policy = build(dram=8 * KiB, cxl=8 * KiB, nvram=8 * KiB)
        with pytest.raises(OutOfMemoryError):
            new_obj(manager, policy, size=64 * KiB)


class TestPromotion:
    def test_will_write_promotes_to_top(self):
        manager, policy = build()
        objs = [new_obj(manager, policy, name=f"o{i}") for i in range(5)]
        demoted = next(
            obj for obj in objs
            if manager.getprimary(obj).device_name != "DRAM"
        )
        policy.will_write(demoted)
        assert manager.getprimary(demoted).device_name == "DRAM"
        assert policy.stats.promotions.get("DRAM", 0) >= 1

    def test_will_use_leaves_a_demoted_object_in_place(self):
        manager, policy = build()
        objs = [new_obj(manager, policy, name=f"o{i}") for i in range(5)]
        demoted = next(
            obj for obj in objs
            if manager.getprimary(obj).device_name != "DRAM"
        )
        policy.will_use(demoted)
        assert manager.getprimary(demoted).device_name != "DRAM"

    def test_write_intent_residency_promotes(self):
        manager, policy = build()
        objs = [new_obj(manager, policy, name=f"o{i}") for i in range(5)]
        demoted = next(
            obj for obj in objs
            if manager.getprimary(obj).device_name != "DRAM"
        )
        region = policy.ensure_resident(demoted, AccessIntent.WRITE)
        assert region.device_name == "DRAM"


class TestPromotionCascade:
    def test_a_cascade_cannot_demote_the_object_being_promoted(self):
        """Promoting a CXL object forces a DRAM eviction whose demotion
        makes room in CXL; the object being promoted is CXL's coldest
        candidate, and demoting it would free the region the promotion is
        about to copy from. It is pinned for the eviction, so the cascade
        takes the next victim and the promotion completes."""
        manager, policy = build(dram=48 * KiB, cxl=64 * KiB, nvram=4 * MiB)
        sizes = (8, 8, 8, 8, 12, 8, 8, 8, 8, 24)
        objs = [
            new_obj(manager, policy, size=size * KiB, name=f"t{index}")
            for index, size in enumerate(sizes)
        ]
        assert manager.getprimary(objs[0]).device_name == "CXL"
        region = policy.ensure_resident(objs[0], AccessIntent.WRITE)
        assert region.device_name == "DRAM"
        assert not objs[0].pinned
        policy.check_invariant()
        manager.check_invariants()


class TestDemotionAcrossLinkedSecondaries:
    """A promotion leaves the lower-tier copy linked as a clean secondary;
    a later span eviction of that tier may cover it (ROADMAP item 1: the
    seed-59 fuzz failure, built here by hand)."""

    def promoted(self):
        manager, policy = build()
        obj = manager.new_object(16 * KiB, "a")
        manager.setprimary(obj, manager.allocate("CXL", obj.size))
        policy.lru["CXL"].touch(obj)
        policy.will_write(obj)  # CXL -> DRAM; the CXL region stays linked
        secondary = obj.region_on("CXL")
        assert manager.getprimary(obj).device_name == "DRAM"
        assert secondary is not None and not secondary.is_primary
        return manager, policy, obj, secondary

    def test_span_eviction_drops_the_clean_secondary(self):
        manager, policy, obj, secondary = self.promoted()
        primary = manager.getprimary(obj)
        demotions = dict(policy.stats.demotions)
        manager.evictfrom(
            "CXL", secondary, secondary.size,
            lambda region: policy._demote_region(region, 1),
        )
        assert secondary.freed
        assert obj.region_on("CXL") is None
        # Nothing was demoted: the object did not move, no data was copied.
        assert manager.getprimary(obj) is primary
        assert policy.stats.demotions == demotions
        assert obj in policy.lru["DRAM"]
        policy.check_invariant()
        manager.check_invariants()

    def test_pressure_on_the_middle_tier_survives_a_secondary(self):
        manager, policy, obj, secondary = self.promoted()
        # Fill CXL so making room has to sweep a span that includes the
        # secondary (it sits at the bottom of the heap).
        fillers = []
        while True:
            region = manager.try_allocate("CXL", 16 * KiB)
            if region is None:
                break
            filler = manager.new_object(16 * KiB, f"f{len(fillers)}")
            manager.setprimary(filler, region)
            policy.lru["CXL"].touch(filler)
            fillers.append(filler)
        # Make the heap's last block the coldest victim: a request two
        # regions wide cannot start there, so the span retries from the
        # bottom of the heap — offset 0, where the secondary lives.
        policy.archive(fillers[-1])
        assert policy.handle_pressure("CXL", 32 * KiB)
        assert secondary.freed
        assert manager.getprimary(obj).device_name == "DRAM"
        policy.check_invariant()
        manager.check_invariants()


class TestLifecycle:
    def test_archive_prioritises_victim(self):
        manager, policy = build()
        objs = [new_obj(manager, policy, name=f"o{i}") for i in range(4)]
        policy.archive(objs[3])
        new_obj(manager, policy, name="fresh")
        assert manager.getprimary(objs[3]).device_name != "DRAM"

    def test_retire_frees_all_tiers(self):
        manager, policy = build()
        obj = new_obj(manager, policy)
        policy.will_write(obj)  # may have created linked lower copies
        policy.retire(obj)
        assert obj.retired
        manager.check_invariants()

    def test_invariant_after_churn(self):
        manager, policy = build(dram=48 * KiB, cxl=64 * KiB)
        objs = []
        for i in range(12):
            objs.append(new_obj(manager, policy, size=8 * KiB, name=f"c{i}"))
            if i % 3 == 0 and objs:
                policy.will_write(objs[i // 2])
            if i % 4 == 0:
                policy.archive(objs[i // 3])
        policy.check_invariant()
        manager.check_invariants()


class TestUnmodifiedPolicyAcrossPlatforms:
    """Section VI: migrating platforms requires no policy change."""

    def test_same_two_tier_policy_runs_on_cxl_platform(self):
        from repro.policies.optimizing import OptimizingPolicy

        # The paper's DRAM/NVRAM policy, pointed at a DRAM/CXL platform.
        devices = [MemoryDevice.dram(64 * KiB), MemoryDevice.cxl(MiB, name="CXL")]
        session = Session(
            SessionConfig(devices=devices),
            policy=OptimizingPolicy(fast="DRAM", slow="CXL", local_alloc=True),
        )
        arrays = [session.empty((4096,), name=f"a{i}") for i in range(8)]
        for array in arrays[:4]:
            array.archive()
        big = session.empty((8192,), name="big")
        assert big.device == "DRAM"
        assert any(a.device == "CXL" for a in arrays)
        session.close()

    def test_cxl_is_faster_tier_than_nvram(self):
        cxl = MemoryDevice.cxl(MiB).bandwidth
        nvram = MemoryDevice.nvram(MiB).bandwidth
        write = (TransferKind.WRITE, MiB, 8)
        assert cxl.transfer_time(*write) < nvram.transfer_time(*write)

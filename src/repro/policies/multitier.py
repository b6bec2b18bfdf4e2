"""A multi-tier generalisation of the reference policy.

Section VI argues the framework extends beyond DRAM+NVRAM pairs — "other
heterogeneous memory devices such as local/remote memory (e.g., CXL)" — and
that "the user-defined policy does not have to be modified" when the
platform changes. :class:`MultiTierPolicy` demonstrates both: it drives any
*ordered chain* of devices (e.g. ``["DRAM", "CXL", "NVRAM"]``) with the same
Listing-1/Listing-2 building blocks, demoting eviction victims one tier down
(cascading recursively when the middle tiers are full) and promoting
written/used objects to the top.

Tier invariants (checked by ``check_invariant``):

* an object's primary is its *highest* (fastest) region; linked copies may
  trail on lower tiers;
* a region on any tier above the bottom is always its object's primary
  (the two-tier policy invariant, applied per level).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.object import MemObject, Region
from repro.core.policy_api import AccessIntent, Policy
from repro.errors import ConfigurationError, OutOfMemoryError, PolicyError
from repro.policies.base import (
    evict_object,
    find_eviction_start,
    make_room,
    prefetch_object,
)
from repro.policies.lru import LruTracker

__all__ = ["MultiTierPolicy", "TierStats"]


@dataclass
class TierStats:
    """Per-tier movement counters, one set per policy."""

    demotions: dict[str, int] = field(default_factory=dict)
    promotions: dict[str, int] = field(default_factory=dict)
    placed: dict[str, int] = field(default_factory=dict)

    def bump(self, counter: dict[str, int], tier: str) -> None:
        counter[tier] = counter.get(tier, 0) + 1

    def as_dict(self) -> dict[str, int]:
        """Flattened counters (the executor's policy_stats interface)."""
        out: dict[str, int] = {}
        for prefix, counter in (
            ("demotions_to", self.demotions),
            ("promotions_to", self.promotions),
            ("placed_in", self.placed),
        ):
            for tier, count in counter.items():
                out[f"{prefix}_{tier}"] = count
        return out


class MultiTierPolicy(Policy):
    """LRU tiering over an ordered device chain, fastest first."""

    def __init__(self, tiers: list[str]) -> None:
        super().__init__()
        if len(tiers) < 2:
            raise ConfigurationError("need at least two tiers")
        if len(set(tiers)) != len(tiers):
            raise ConfigurationError(f"duplicate tiers in {tiers}")
        self.tiers = list(tiers)
        self.lru: dict[str, LruTracker] = {tier: LruTracker() for tier in tiers}
        self.stats = TierStats()

    def on_bound(self) -> None:
        devices = self.manager.devices()
        missing = [tier for tier in self.tiers if tier not in devices]
        if missing:
            raise ConfigurationError(f"tiers {missing} not among devices {devices}")

    # -- helpers ---------------------------------------------------------------

    def _tier_index(self, device: str) -> int:
        try:
            return self.tiers.index(device)
        except ValueError:
            raise PolicyError(f"device {device!r} is not a managed tier") from None

    def _touch(self, obj: MemObject) -> None:
        if obj.primary is not None:
            self.lru[obj.primary.device_name].touch(obj)

    # -- placement ----------------------------------------------------------------

    def place(self, obj: MemObject) -> Region:
        """New objects are born as high as room can be made."""
        for index, tier in enumerate(self.tiers):
            region = self._allocate_in_tier(index, obj.size)
            if region is not None:
                self.manager.setprimary(obj, region)
                self.lru[tier].touch(obj)
                self.stats.bump(self.stats.placed, tier)
                self.tracer.place(obj.name, tier, obj.size)
                return region
        bottom = self.tiers[-1]
        raise OutOfMemoryError(bottom, obj.size, self.manager.free_bytes(bottom))

    def _allocate_in_tier(self, index: int, size: int) -> Region | None:
        """Allocate in tier ``index``, demoting victims downward if needed."""
        tier = self.tiers[index]
        region = self.manager.try_allocate(tier, size)
        if region is None and self._make_room(index, size):
            region = self.manager.try_allocate(tier, size)
        return region

    def _make_room(self, index: int, size: int) -> bool:
        """Demote a ``size``-byte span of tier ``index`` one tier down."""
        if index == len(self.tiers) - 1:
            return False  # bottom tier: nothing below to demote into
        return make_room(
            self.manager,
            self.tiers[index],
            size,
            lambda need: self._find_eviction_start(index, need),
            lambda region: self._demote_region(region, index),
        )

    def _find_eviction_start(self, index: int, size: int) -> Region | None:
        tier = self.tiers[index]
        return find_eviction_start(
            self.manager,
            self.tracer,
            tier,
            size,
            self.lru[tier].ranked(),
            policy=type(self).__name__,
            absent="not_resident_tier",
            tier=index,
        )

    def _demote_region(self, region: Region, index: int) -> None:
        """Evict one region's object from tier ``index`` to ``index + 1``."""
        obj = self.manager.parent(region)
        if region is not obj.primary:
            # A promotion left this region behind as a clean linked copy
            # (the primary now lives in a faster tier). There is nothing to
            # demote: dropping the copy loses no data and moves no object.
            self.manager.unlink(obj.primary, region)
            self.manager.free(region)
            return
        if obj.pinned:
            raise PolicyError(f"asked to demote pinned {obj!r}")
        tier, below = self.tiers[index], self.tiers[index + 1]
        room = None
        linked = self.manager.getlinked(region, below)
        if linked is None:
            # Reserve room below first (may cascade further down).
            room = self._allocate_in_tier(index + 1, region.size)
            if room is None:
                raise OutOfMemoryError(
                    below, region.size, self.manager.free_bytes(below)
                )
        self.tracer.evict(
            obj.name,
            tier,
            below,
            obj.size,
            linked is not None and not self.manager.isdirty(region),
        )
        with self.tracer.scope("evict", obj):
            evicted = evict_object(self.manager, obj, tier, below, room=room)
        if evicted:
            self.stats.bump(self.stats.demotions, below)
        self.lru[tier].discard(obj)
        self.lru[below].touch(obj)

    # -- hints ------------------------------------------------------------------------

    def will_use(self, obj: MemObject) -> None:
        self._touch(obj)

    def will_write(self, obj: MemObject) -> None:
        self._touch(obj)
        self._promote(obj)

    def archive(self, obj: MemObject) -> None:
        if obj.primary is not None:
            self.lru[obj.primary.device_name].demote(obj)

    def retire(self, obj: MemObject) -> None:
        for tracker in self.lru.values():
            tracker.discard(obj)
        self.manager.destroy_object(obj)

    # -- residency ---------------------------------------------------------------------

    def ensure_resident(self, obj: MemObject, intent: AccessIntent) -> Region:
        obj.check_usable()
        if intent is AccessIntent.WRITE:
            self._promote(obj)
        self._touch(obj)
        return self.manager.getprimary(obj)

    def _promote(self, obj: MemObject) -> Region | None:
        """Move the object's primary to the top tier, best effort."""
        if obj.primary is None:
            raise PolicyError(f"{obj!r} has no primary region")
        current = self._tier_index(obj.primary.device_name)
        if current == 0:
            return obj.primary
        top = self.tiers[0]
        region = prefetch_object(
            self.manager,
            obj,
            top,
            self.tiers[current],
            force=True,
            find_start=lambda size: self._find_eviction_start(0, size),
            evict_callback=lambda r: self._demote_region(r, 0),
        )
        if region is not None and region.device_name == top:
            self.lru[self.tiers[current]].discard(obj)
            self.lru[top].touch(obj)
            self.stats.bump(self.stats.promotions, top)
            self.tracer.prefetch(obj.name, self.tiers[current], top, obj.size)
        return region

    # -- recovery (docs/robustness.md) -----------------------------------------------

    def handle_pressure(self, device: str, nbytes: int) -> bool:
        """Ladder rung: demote a contiguous span of ``device`` one tier down."""
        if device not in self.tiers:
            return False
        return self._make_room(self.tiers.index(device), nbytes)

    # -- validation ----------------------------------------------------------------------

    def check_invariant(self) -> None:
        for obj in self.manager.objects.values():
            primary = obj.primary
            if primary is None:
                continue
            primary_tier = self._tier_index(primary.device_name)
            for region in obj.regions():
                tier = self._tier_index(region.device_name)
                if tier < primary_tier:
                    raise PolicyError(
                        f"{obj!r}: non-primary {region!r} above the primary tier"
                    )

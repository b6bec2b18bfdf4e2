"""The paper's reference policy for DRAM+NVRAM CNN training.

One policy class with the Section IV toggles:

* ``local_alloc`` (**L**): new objects are born in fast memory when room can
  be made; disabled, every object is born in NVRAM and migrated to DRAM
  before use, "effectively generating a compulsory miss on first access ...
  to more closely model the behaviour of 2LM" (CA: ∅).
* ``prefetch`` (**P**): ``will_read`` pulls the object into DRAM ahead of the
  kernel. Off, reads execute from wherever the object lives — NVRAM read
  bandwidth is high enough that this is often the right call (Section III-D).

Independent of the toggles, the policy:

* responds to ``will_write`` / write-intent residency by migrating the target
  into DRAM (NVRAM writes are slow and low-bandwidth);
* keeps evicted-then-prefetched objects *linked* to their NVRAM copy so
  clean evictions are free;
* reacts to ``archive`` by demoting the object in the LRU order (no eager
  data movement — "a reasonable policy implementation will not eagerly evict
  data upon an archive annotation");
* maintains the invariant that a fast-memory region is always its object's
  primary.
"""

from __future__ import annotations

from repro.core.object import MemObject, Region
from repro.core.policy_api import AccessIntent, Policy
from repro.errors import ConfigurationError, PolicyError
from repro.policies.base import (
    evict_object,
    find_eviction_start,
    make_room,
    prefetch_object,
)
from repro.policies.lru import LruTracker
from repro.telemetry.metrics import Counter, MetricsRegistry

__all__ = ["OptimizingPolicy", "PolicyStats"]


class PolicyStats:
    """Observable policy behaviour, for reports and regression tests.

    Attribute access works exactly like the old plain-int dataclass
    (``stats.evictions += 1``), but each field is backed by a telemetry
    :class:`Counter`. When the policy binds to a session, :meth:`attach`
    re-homes the counters into the session's :class:`MetricsRegistry` under
    ``policy.*`` names, so reports read one flat namespace instead of
    scattered per-policy dicts.
    """

    FIELDS = (
        "placed_fast",
        "placed_slow",
        "prefetches",
        "evictions",
        "elided_writebacks",  # clean evictions that skipped the copy
        "forced_eviction_rounds",
        "retires",
    )

    def __init__(self) -> None:
        object.__setattr__(
            self, "_counters", {name: Counter() for name in self.FIELDS}
        )

    def attach(self, registry: MetricsRegistry) -> None:
        """Back the fields with registry counters (pre-bind counts carry over)."""
        counters = self._counters
        for name in self.FIELDS:
            shared = registry.counter(f"policy.{name}")
            shared.value += counters[name].value
            counters[name] = shared

    def __getattr__(self, name: str) -> int:
        counters = object.__getattribute__(self, "_counters")
        try:
            return counters[name].value
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: int) -> None:
        counter = self._counters.get(name)
        if counter is None:
            object.__setattr__(self, name, value)
        else:
            counter.value = value

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"PolicyStats({fields})"

    def as_dict(self) -> dict[str, int]:
        return {name: counter.value for name, counter in self._counters.items()}


class OptimizingPolicy(Policy):
    """LRU policy with the L and P toggles over a fast/slow device pair."""

    def __init__(
        self,
        fast: str = "DRAM",
        slow: str = "NVRAM",
        *,
        local_alloc: bool = True,
        prefetch: bool = False,
    ) -> None:
        super().__init__()
        if fast == slow:
            raise ConfigurationError("fast and slow must be different devices")
        self.fast = fast
        self.slow = slow
        self.local_alloc = local_alloc
        self.prefetch = prefetch
        self.lru = LruTracker()
        self.stats = PolicyStats()

    def on_bound(self) -> None:
        devices = self.manager.devices()
        if self.slow not in devices:
            raise ConfigurationError(f"slow device {self.slow!r} not in {devices}")
        if self.fast not in devices:
            raise ConfigurationError(f"fast device {self.fast!r} not in {devices}")

    # -- placement ------------------------------------------------------------

    def place(self, obj: MemObject) -> Region:
        """First allocation for a new object.

        With **L**: fast memory first (forcing eviction if needed), NVRAM as
        the fallback for objects that cannot fit. Without **L**: always
        NVRAM — the compulsory-miss model of CA: ∅.
        """
        if self.local_alloc:
            region = self._allocate_fast(obj.size)
            if region is not None:
                self.manager.setprimary(obj, region)
                self.lru.touch(obj)
                self.stats.placed_fast += 1
                self.tracer.place(obj.name, region.device_name, obj.size)
                return region
        region = self.manager.allocate(self.slow, obj.size)
        self.manager.setprimary(obj, region)
        self.stats.placed_slow += 1
        self.tracer.place(obj.name, self.slow, obj.size)
        return region

    # -- hints ------------------------------------------------------------------

    def will_use(self, obj: MemObject) -> None:
        self._note_use(obj)

    def will_read(self, obj: MemObject) -> None:
        self._note_use(obj)
        if self.prefetch and self._prefetch(obj) is not None:
            self.stats.prefetches += 1

    def will_write(self, obj: MemObject) -> None:
        self._note_use(obj)
        self._prefetch(obj)

    def archive(self, obj: MemObject) -> None:
        """No data movement — just make the object the preferred victim."""
        if obj.primary is not None and obj.primary.device_name == self.fast:
            self.lru.demote(obj)

    def retire(self, obj: MemObject) -> None:
        self.lru.discard(obj)
        self.manager.destroy_object(obj)
        self.stats.retires += 1

    def _note_use(self, obj: MemObject) -> None:
        if obj.primary is not None and obj.primary.device_name == self.fast:
            self.lru.touch(obj)

    # -- residency ----------------------------------------------------------------

    def ensure_resident(self, obj: MemObject, intent: AccessIntent) -> Region:
        """Make the object usable for a kernel about to pin it.

        * write intent: migrate into fast memory (best effort);
        * read/use intent: migrate only in cache-like mode (no **L**) —
          with **L**, reads run from NVRAM unless **P** prefetched earlier.
        """
        primary = self.manager.getprimary(obj)
        cache_like = not self.local_alloc
        wants_fast = cache_like or intent is AccessIntent.WRITE
        if wants_fast and primary.device_name == self.slow:
            moved = self._prefetch(obj)
            if moved is not None:
                return moved
            # A failed prefetch may still have run evictions: re-read.
            primary = self.manager.getprimary(obj)
        self._note_use(obj)
        return primary

    # -- movement internals -----------------------------------------------------------

    def _prefetch(self, obj: MemObject) -> Region | None:
        was_slow = (
            obj.primary is not None and obj.primary.device_name == self.slow
        )
        region = prefetch_object(
            self.manager,
            obj,
            self.fast,
            self.slow,
            force=True,
            find_start=self._find_eviction_start,
            evict_callback=self._evict_region,
        )
        if region is not None and region.device_name == self.fast:
            self.lru.touch(obj)
            if was_slow:
                # An actual slow->fast move, not a no-op on already-fast data.
                self.tracer.prefetch(obj.name, self.slow, self.fast, obj.size)
        return region

    def _allocate_fast(self, size: int) -> Region | None:
        """Allocate raw space in fast memory, evicting cold objects if needed."""
        region = self.manager.try_allocate(self.fast, size)
        if region is None and self._make_room(size):
            region = self.manager.try_allocate(self.fast, size)
        return region

    def _make_room(self, size: int) -> bool:
        return make_room(
            self.manager, self.fast, size, self._find_eviction_start, self._evict_region
        )

    def _find_eviction_start(self, size: int) -> Region | None:
        """Coldest-first victim order for Listing 2's ``find_region``."""
        self.stats.forced_eviction_rounds += 1
        return find_eviction_start(
            self.manager,
            self.tracer,
            self.fast,
            size,
            self.lru.ranked(),
            policy=type(self).__name__,
            absent="not_resident_fast",
        )

    def _evict_region(self, region: Region) -> None:
        """``evictfrom`` callback: evict the region's whole object."""
        obj = self.manager.parent(region)
        if obj.pinned:
            raise PolicyError(f"asked to evict pinned {obj!r}")
        was_clean = not self.manager.isdirty(region) and (
            self.manager.getlinked(region, self.slow) is not None
        )
        self.tracer.evict(obj.name, self.fast, self.slow, obj.size, was_clean)
        with self.tracer.scope("evict", obj):
            evicted = evict_object(self.manager, obj, self.fast, self.slow)
        if evicted:
            self.stats.evictions += 1
            if was_clean:
                self.stats.elided_writebacks += 1
        self.lru.discard(obj)

    # -- recovery (docs/robustness.md) ------------------------------------------------

    def handle_pressure(self, device: str, nbytes: int) -> bool:
        """Ladder rung: evict a contiguous ``nbytes`` span of fast memory.

        Only fast-memory pressure is actionable: on the slow device the
        policy has nowhere to evict *to*, so it declines and lets the ladder
        fall through to defragmentation and cross-tier fallback.
        """
        return device == self.fast and self._make_room(nbytes)

    # -- bookkeeping ----------------------------------------------------------------------

    def on_kernel_finish(self, read: list[MemObject], wrote: list[MemObject]) -> None:
        for obj in read:
            self._note_use(obj)
        for obj in wrote:
            self._note_use(obj)
            primary = obj.primary
            if primary is not None:
                # A written primary invalidates any linked secondary.
                self.manager.setdirty(primary, True)

    def check_invariant(self) -> None:
        """Paper's policy invariant: any fast-memory region is a primary."""
        for region in self.manager.regions_on(self.fast):
            if region.parent is not None and not region.is_primary:
                raise PolicyError(
                    f"invariant violated: {region!r} in fast memory is secondary"
                )

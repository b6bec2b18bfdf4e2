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

from typing import Iterable, Sequence

from repro.core.object import MemObject, Region
from repro.core.policy_api import (
    RESIDENCY_LABELS,
    AccessIntent,
    Intents,
    Policy,
    operand_intents,
)
from repro.errors import ConfigurationError, PolicyError
from repro.policies.base import (
    evict_object,
    find_eviction_start,
    make_room,
    prefetch_object,
)
from repro.policies.lru import LruTracker
from repro.telemetry.trace import NULL_TRACER

__all__ = ["OptimizingPolicy", "PolicyStats"]


class PolicyStats:
    """Observable policy behaviour, for reports and regression tests.

    Plain int fields, one set per policy: co-located tenants each keep
    their own counts.
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
    __slots__ = FIELDS

    def __init__(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"PolicyStats({fields})"

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.FIELDS}


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
        manager = self.manager
        tracer = manager.tracer
        if self.local_alloc:
            region = self._allocate_fast(obj.size)
            if region is not None:
                manager.setprimary(obj, region)
                self.lru.touch(obj)
                self.stats.placed_fast += 1
                tracer.place(obj.name, region.device_name, obj.size)
                return region
        region = manager.allocate(self.slow, obj.size)
        manager.setprimary(obj, region)
        self.stats.placed_slow += 1
        tracer.place(obj.name, self.slow, obj.size)
        return region

    # -- one kernel's pre-launch work --------------------------------------------

    def acquire_operands(
        self,
        reads: Sequence[MemObject],
        writes: Sequence[MemObject],
        hinted: bool,
        pinned: list[MemObject],
        tracer=NULL_TRACER,
    ) -> None:
        """Both sweeps over one ``used`` list, with one recency note per
        fetch instead of one per sweep.

        A fetch still notes the uses collected so far first, because its
        victim scan reads the order. The uses after the last fetch are not
        noted here: :meth:`on_kernel_finish` touches every operand, in
        ``[*reads, *writes]`` order, with nothing moved in between, and
        touching a subset of those operands just before leaves the same LRU
        order. If a sweep raises, ``used`` is noted before the error goes
        on, as the ``finally`` blocks of :meth:`_hint_operands` and
        :meth:`_resolve_operands` do. A policy whose ``_note_uses`` counts
        every use (:class:`~repro.policies.adaptive.AdaptivePolicy`) makes
        those two calls instead.
        """
        used: list[MemObject] = []
        try:
            if hinted:
                self._hint_sweep(reads, writes, used, tracer)
            self._resolve_sweep(operand_intents(reads, writes), pinned, used, tracer)
        except BaseException:
            self._note_uses(used)
            raise

    # -- hints ------------------------------------------------------------------

    def _hint_operands(
        self,
        reads: Iterable[MemObject],
        writes: Iterable[MemObject],
        tracer=NULL_TRACER,
    ) -> None:
        """One kernel's hints (:meth:`_hint_sweep`), its uses noted at the
        end. The default tracer emits nothing, which is how a caller that
        opened the hint itself reaches the body."""
        used: list[MemObject] = []
        try:
            self._hint_sweep(reads, writes, used, tracer)
        finally:
            self._note_uses(used)

    def _hint_sweep(
        self,
        reads: Iterable[MemObject],
        writes: Iterable[MemObject],
        used: list[MemObject],
        tracer,
    ) -> None:
        """Every operand counts as used (appended to ``used``); write
        targets and — with **P** — reads are pulled into fast memory.

        Only a fetch emits events, so only a fetch opens its operand's
        ``hint`` scope. An operand that moves nothing is *owed* its
        ``hint`` event: the next fetch's ``tracer.hint`` or the sweep's
        closing ``tracer.hints`` emits it, in operand order and at the
        same virtual time, since nothing in between moves the clock. An
        operand is owed from the moment it is reached (a ``getprimary``
        that raises leaves its hint out) until its own fetch takes it back.
        Each operand's primary is read inline; ``getprimary`` is called only
        for one that has none, to raise its error.
        """
        slow = self.slow
        owed_reads: list[MemObject] = []
        owed_writes: list[MemObject] = []
        try:
            if self.prefetch:
                for obj in reads:
                    used.append(obj)
                    owed_reads.append(obj)
                    primary = obj.primary
                    if primary is None or obj.retired:
                        self.manager.getprimary(obj)  # raises
                    if primary.device_name != slow:
                        self.stats.prefetches += 1
                        continue
                    owed_reads.pop()
                    with tracer.hint("will_read", obj, owed_reads, owed_writes):
                        if self._fetch(obj, used) is not None:
                            self.stats.prefetches += 1
            else:
                owed_reads.extend(reads)
                used.extend(owed_reads)
            for obj in writes:
                used.append(obj)
                owed_writes.append(obj)
                primary = obj.primary
                if primary is None or obj.retired:
                    self.manager.getprimary(obj)  # raises
                if primary.device_name == slow:
                    owed_writes.pop()
                    with tracer.hint("will_write", obj, owed_reads, owed_writes):
                        self._fetch(obj, used)
        finally:
            tracer.hints(owed_reads, owed_writes)

    def will_use(self, obj: MemObject) -> None:
        self._note_uses([obj])

    def will_read(self, obj: MemObject) -> None:
        self._hint_operands((obj,), ())

    def will_write(self, obj: MemObject) -> None:
        self._hint_operands((), (obj,))

    def archive(self, obj: MemObject) -> None:
        """No data movement — just make the object the preferred victim."""
        if obj.primary is not None and obj.primary.device_name == self.fast:
            self.lru.demote(obj)

    def retire(self, obj: MemObject) -> None:
        self.lru.discard(obj)
        self.manager.destroy_object(obj)
        self.stats.retires += 1

    def _note_uses(self, objs: list[MemObject]) -> None:
        """Recency bookkeeping for a run of uses with no movement between
        them: those in fast memory become the most recently used."""
        fast = self.fast
        self.lru.touch_all(
            [o for o in objs if (p := o.primary) is not None and p.device_name == fast]
        )

    # -- residency ----------------------------------------------------------------

    def _resolve_operands(
        self, intents: Intents, pinned: list[MemObject], tracer=NULL_TRACER
    ) -> None:
        """One kernel's residency (:meth:`_resolve_sweep`), its uses noted
        at the end."""
        used: list[MemObject] = []
        try:
            self._resolve_sweep(intents, pinned, used, tracer)
        finally:
            self._note_uses(used)

    def _resolve_sweep(
        self, intents: Intents, pinned: list[MemObject], used: list[MemObject], tracer
    ) -> None:
        """Make each operand usable for the kernel about to run, and pin it.

        * write intent: migrate into fast memory (best effort);
        * read/use intent: migrate only in cache-like mode (no **L**) —
          with **L**, reads run from NVRAM unless **P** prefetched earlier.

        An operand that stays where it was is a plain use, appended to
        ``used``. A fetch runs under its operand's residency scope, the only
        place this sweep emits events. Primaries are read as in
        :meth:`_hint_sweep`, and that check is the one ``MemObject.pin``
        makes (a fetch leaves a primary), so the pin is its count bump.
        """
        slow = self.slow
        cache_like = not self.local_alloc
        write = AccessIntent.WRITE
        for obj, intent in intents:
            primary = obj.primary
            if primary is None or obj.retired:
                self.manager.getprimary(obj)  # raises
            if primary.device_name != slow or not (cache_like or intent is write):
                used.append(obj)  # stays where it is: a plain use
            else:
                with tracer.scope(RESIDENCY_LABELS[intent], obj):
                    if self._fetch(obj, used) is None:
                        used.append(obj)  # could not move: a plain use
            obj.pin_count += 1
            pinned.append(obj)

    def ensure_resident(self, obj: MemObject, intent: AccessIntent) -> Region:
        """:meth:`_resolve_operands` for one operand outside a kernel."""
        self._resolve_operands(((obj, intent),), [])
        obj.unpin()  # a lone residency request holds no pin
        return obj.primary

    # -- movement internals -----------------------------------------------------------

    def _fetch(self, obj: MemObject, used: list[MemObject]) -> Region | None:
        """Prefetch a slow operand mid-sweep. The uses collected so far are
        noted first: a forced prefetch's victim scan reads the order."""
        self._note_uses(used)
        used.clear()
        return self._prefetch(obj)

    def _prefetch(self, obj: MemObject) -> Region | None:
        manager = self.manager
        primary = obj.primary
        was_slow = primary is not None and primary.device_name == self.slow
        region = prefetch_object(
            manager,
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
                manager.tracer.prefetch(obj.name, self.slow, self.fast, obj.size)
        return region

    def _allocate_fast(self, size: int) -> Region | None:
        """Allocate raw space in fast memory, evicting cold objects if needed."""
        try_allocate = self.manager.try_allocate
        region = try_allocate(self.fast, size)
        if region is None and self._make_room(size):
            region = try_allocate(self.fast, size)
        return region

    def _make_room(self, size: int) -> bool:
        return make_room(
            self.manager, self.fast, size, self._find_eviction_start, self._evict_region
        )

    def _find_eviction_start(self, size: int) -> Region | None:
        """Coldest-first victim order for Listing 2's ``find_region``."""
        self.stats.forced_eviction_rounds += 1
        manager = self.manager
        return find_eviction_start(
            manager,
            manager.tracer,
            self.fast,
            size,
            self.lru.ranked(),
            policy=type(self).__name__,
            absent="not_resident_fast",
        )

    def _evict_region(self, region: Region) -> None:
        """``evictfrom`` callback: evict the region's whole object."""
        manager = self.manager
        tracer = manager.tracer
        obj = manager.parent(region)
        if obj.pinned:
            raise PolicyError(f"asked to evict pinned {obj!r}")
        was_clean = not manager.isdirty(region) and (
            manager.getlinked(region, self.slow) is not None
        )
        tracer.evict(obj.name, self.fast, self.slow, obj.size, was_clean)
        with tracer.scope("evict", obj):
            evicted = evict_object(manager, obj, self.fast, self.slow)
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
        self._note_uses([*read, *wrote])
        setdirty = self.manager.setdirty
        for obj in wrote:
            primary = obj.primary
            if primary is not None:
                # A written primary invalidates any linked secondary.
                setdirty(primary, True)

    def check_invariant(self) -> None:
        """Paper's policy invariant: any fast-memory region is a primary."""
        for region in self.manager.regions_on(self.fast):
            if region.parent is not None and not region.is_primary:
                raise PolicyError(
                    f"invariant violated: {region!r} in fast memory is secondary"
                )

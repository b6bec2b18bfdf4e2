"""The data manager: the paper's data-management API (Section III-C).

The manager is the *mechanism* layer. It knows how to allocate and free
regions, copy bytes between them, link regions to objects, and answer state
queries — and nothing about *why*. Policies drive it; applications never see
it (they talk to the policy through hints).

API surface mapped to the paper's names:

=====================  ====================================================
Paper                  Here
=====================  ====================================================
``getprimary(obj)``    :meth:`DataManager.getprimary`
``setprimary(obj,r)``  :meth:`DataManager.setprimary`
``allocate(dev,sz)``   :meth:`DataManager.allocate` / :meth:`try_allocate`
``free(r)``            :meth:`DataManager.free`
``copyto(dst,src)``    :meth:`DataManager.copyto`
``link(x,y)``          :meth:`DataManager.link`
``unlink(x,y)``        :meth:`DataManager.unlink`
``sizeof(r)``          :meth:`DataManager.sizeof`
``getlinked(r,dev)``   :meth:`DataManager.getlinked`
``in(r,dev)``          :meth:`DataManager.in_device`
``isdirty/setdirty``   :meth:`DataManager.isdirty` / :meth:`setdirty`
``parent(r)``          :meth:`DataManager.parent`
``evictfrom``          :meth:`DataManager.evictfrom`
=====================  ====================================================
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.errors import (
    ConfigurationError,
    LinkError,
    ObjectStateError,
    OutOfMemoryError,
    PolicyError,
    RegionStateError,
)
from repro.core.object import MemObject, Region
from repro.memory.copyengine import CopyEngine
from repro.memory.heap import Heap
from repro.telemetry import trace as tracing

__all__ = ["DataManager"]


class DataManager:
    """Mechanism layer: regions, copies, links, and device state queries."""

    def __init__(
        self,
        heaps: dict[str, Heap],
        engine: CopyEngine,
        *,
        tracer: "tracing.Tracer | tracing.NullTracer | None" = None,
    ) -> None:
        if not heaps:
            raise ConfigurationError("DataManager needs at least one heap")
        self.heaps = dict(heaps)
        self.engine = engine
        self.tracer = tracer if tracer is not None else tracing.NULL_TRACER
        self._regions: dict[tuple[str, int], Region] = {}
        self.objects: dict[int, MemObject] = {}
        # Multi-tenant accounting (docs/architecture.md, "Multi-tenant
        # runtime"). ``active_tenant`` is the accounting principal for new
        # allocations; the scheduler repoints it on every stream switch.
        # Everything below is guarded by ``self._quota`` being non-empty,
        # so single-tenant sessions pay nothing.
        self.active_tenant: str = ""
        self._quota: dict[tuple[str, str], int] = {}
        self._tenant_used: dict[tuple[str, str], int] = {}

    # -- tenant quotas --------------------------------------------------------

    def set_quota(self, tenant: str, device: str, limit: int) -> None:
        """Cap ``tenant``'s live bytes on ``device``.

        Must be set before the tenant allocates: only regions allocated
        while quotas exist are charged to their owner. Exceeding the cap
        raises :class:`OutOfMemoryError` from :meth:`allocate` exactly like
        heap exhaustion, so policies and the recovery ladder respond the
        same way (evicting the tenant's own regions frees its budget).
        """
        self.heap(device)  # validate the device name
        self._quota[(tenant, device)] = int(limit)

    def tenant_used(self, tenant: str, device: str) -> int:
        """Quota-charged live bytes for ``tenant`` on ``device``."""
        return self._tenant_used.get((tenant, device), 0)

    def tenant_usage(self) -> dict[tuple[str, str], int]:
        """The full (tenant, device) -> live-bytes accounting table.

        The runtime monitor samples this at window close for quota-headroom
        rollups; treat the returned mapping as read-only.
        """
        return self._tenant_used

    def tenant_quotas(self) -> dict[tuple[str, str], int]:
        """The live (tenant, device) -> byte-limit table (read-only)."""
        return self._quota

    def tenant_objects(self, tenant: str) -> list[MemObject]:
        """Live objects in ``tenant``'s namespace (``tenant/...`` names)."""
        prefix = f"{tenant}/"
        return [
            obj for obj in self.objects.values() if obj.name.startswith(prefix)
        ]

    def _reattribute_regions(self, tenant: str) -> None:
        """Hand ``tenant``'s charges on *other* tenants' data back to them.

        A region is charged to whoever was active when it was allocated —
        which, for eviction copies, can be a different tenant than the one
        whose object it backs. When the charged tenant departs, those
        regions stay live (the data belongs to a survivor), so the charge
        moves to the backing object's namespace owner (or to the unquota'd
        ``""`` account for orphans). Without this, a departing tenant either
        leaks charged bytes or strands a row that can go negative later.
        """
        for region in self._regions.values():
            if region.tenant != tenant:
                continue
            parent = region.parent
            name = parent.name if parent is not None else ""
            new_owner = name.split("/", 1)[0] if "/" in name else ""
            device = region.device_name
            region.tenant = new_owner
            old_key = (tenant, device)
            self._tenant_used[old_key] = (
                self._tenant_used.get(old_key, 0) - region.size
            )
            new_key = (new_owner, device)
            self._tenant_used[new_key] = (
                self._tenant_used.get(new_key, 0) + region.size
            )

    def drop_tenant(self, tenant: str) -> dict[str, int]:
        """Remove ``tenant``'s quota rows after its objects are gone.

        Charges the tenant carries for *other* tenants' regions (eviction
        copies it paid for) are first re-attributed to the data's owners.
        Returns the refunded (device -> quota bytes) mapping. Raises
        :class:`ObjectStateError` if the tenant still owns live bytes —
        callers must reclaim objects through the normal free path first
        (:meth:`destroy_object`), which is what refunds the usage; dropping
        the rows while bytes are charged would silently leak accounting.
        """
        self._reattribute_regions(tenant)
        leftover = {
            device: used
            for (owner, device), used in self._tenant_used.items()
            if owner == tenant and used
        }
        if leftover:
            raise ObjectStateError(
                f"tenant {tenant!r} still owns live bytes: {leftover}"
            )
        refunded = {
            device: limit
            for (owner, device), limit in self._quota.items()
            if owner == tenant
        }
        for device in refunded:
            del self._quota[(tenant, device)]
        for key in [k for k in self._tenant_used if k[0] == tenant]:
            del self._tenant_used[key]
        if self.active_tenant == tenant:
            self.active_tenant = ""
        return refunded

    # -- device helpers -----------------------------------------------------

    def heap(self, device: str) -> Heap:
        try:
            return self.heaps[device]
        except KeyError:
            raise ConfigurationError(
                f"unknown device {device!r}; have {sorted(self.heaps)}"
            ) from None

    def devices(self) -> list[str]:
        return list(self.heaps)

    def free_bytes(self, device: str) -> int:
        """Free bytes on ``device`` right now.

        Part of the policy-visible mechanism API: policies use it to report
        truthful ``free`` counts in the :class:`OutOfMemoryError` they raise
        (free >= requested tells the recovery ladder the heap is fragmented,
        not full).
        """
        return self.heap(device).free_bytes

    # -- object lifecycle -----------------------------------------------------

    def new_object(self, size: int, name: str = "") -> MemObject:
        """Register a new logical object (it has no region yet)."""
        obj = MemObject(size, name)
        self.objects[obj.id] = obj
        return obj

    def destroy_object(self, obj: MemObject) -> None:
        """Retire an object: free every region and mark it unusable.

        This is the mechanism behind the policy-level ``retire`` hint; after
        it, any access raises. Pinned objects cannot be destroyed.
        """
        if obj.pinned:
            raise ObjectStateError(f"cannot destroy pinned {obj!r}")
        for region in obj.regions():
            obj.detach(region)
            self._release(region)
        obj.retired = True
        self.objects.pop(obj.id, None)

    # -- object functions ------------------------------------------------------

    def getprimary(self, obj: MemObject) -> Region:
        primary = obj.primary
        if primary is None or obj.retired:
            obj.check_usable()
            raise ObjectStateError(f"{obj!r} has no primary region")
        return primary

    def setprimary(self, obj: MemObject, region: Region) -> None:
        """Make ``region`` the object's primary (attaching it if needed)."""
        if obj.retired or region.freed:
            obj.check_usable()
            region.check_live()
        obj.attach(region, primary=True)
        self.tracer.setprimary(obj.name, region.device_name, region.size)

    # -- region functions -------------------------------------------------------

    def allocate(self, device: str, size: int) -> Region:
        """Allocate a region on ``device``; raises ``OutOfMemoryError``.

        With tenant quotas configured, the active tenant's budget on the
        device is checked first and charged on success.
        """
        heap = self.heaps.get(device)
        if heap is None:
            heap = self.heap(device)
        if self._quota:
            key = (self.active_tenant, device)
            limit = self._quota.get(key)
            if limit is not None:
                used = self._tenant_used.get(key, 0)
                if used + size > limit:
                    raise OutOfMemoryError(device, size, max(0, limit - used))
        offset = heap.allocate(size)
        region = Region(heap, offset, size)
        self._regions[(device, offset)] = region
        if self._quota:
            key = (self.active_tenant, device)
            self._tenant_used[key] = self._tenant_used.get(key, 0) + size
            region.tenant = self.active_tenant
        self.tracer.alloc(device, offset, size)
        return region

    def try_allocate(self, device: str, size: int) -> Region | None:
        """Allocate, returning ``None`` on exhaustion (Listing 2's idiom)."""
        try:
            return self.allocate(device, size)
        except OutOfMemoryError:
            return None

    def free(self, region: Region) -> None:
        """Free a region. A primary must be detached from its object first
        (``setprimary`` elsewhere or ``destroy_object``), mirroring Listing 1
        where ``free(x)`` happens only after ``setprimary(object, y)``."""
        if region.freed:
            region.check_live()
        parent = region.parent
        if parent is not None and parent.primary is region:
            raise RegionStateError(
                f"cannot free {region!r}: it is still its object's primary"
            )
        if parent is not None:
            parent.detach(region)
        self._release(region)

    def _release(self, region: Region) -> None:
        region.heap.free(region.offset)
        del self._regions[(region.device_name, region.offset)]
        if self._quota and region.tenant is not None:
            # Refund the recorded owner, not the active tenant: cross-tenant
            # evictions must refund the victim's budget, not the evictor's.
            key = (region.tenant, region.device_name)
            self._tenant_used[key] = self._tenant_used.get(key, 0) - region.size
        region.freed = True
        self.tracer.free(region.device_name, region.offset, region.size)

    def copyto(self, dst: Region, src: Region) -> None:
        """Copy the full logical contents of ``src`` into ``dst``."""
        if src.freed or dst.freed:
            src.check_live()
            dst.check_live()
        if dst.size < src.size:
            raise RegionStateError(
                f"copyto target {dst!r} smaller than source {src!r}"
            )
        record = self.engine.copy(
            src.heap, src.offset, dst.heap, dst.offset, src.size
        )
        # Asynchronous copies complete later; consumers of the destination
        # must wait until then (enforced at kernel-pin time).
        dst.ready_at = record.completes_at
        if self.engine.async_mode and self.tracer.enabled:
            # Extra work only a full trace wants: remember what is in
            # flight so DMA-drain stalls can blame the specific objects
            # still being moved (docs/observability.md).
            parent = dst.parent or src.parent
            self.engine.note_pending(
                record.completes_at, parent.name if parent is not None else ""
            )

    def link(self, x: Region, y: Region) -> None:
        """Associate two regions with the same object (primary stays put)."""
        if x.freed or y.freed:
            x.check_live()
            y.check_live()
        owner_x, owner_y = x.parent, y.parent
        if owner_x is None and owner_y is None:
            raise LinkError(f"neither {x!r} nor {y!r} belongs to an object")
        if owner_x is not None and owner_y is not None:
            if owner_x is not owner_y:
                raise LinkError(f"{x!r} and {y!r} belong to different objects")
            return  # already linked
        owner = owner_x if owner_x is not None else owner_y
        orphan = y if owner_x is not None else x
        assert owner is not None
        owner.attach(orphan, primary=False)

    def unlink(self, x: Region, y: Region) -> None:
        """Break the association; the non-primary region is detached."""
        if x.freed or y.freed:
            x.check_live()
            y.check_live()
        owner = x.parent
        if owner is None or owner is not y.parent:
            raise LinkError(f"{x!r} and {y!r} are not linked")
        primary = owner.primary
        if x is primary and y is primary:  # pragma: no cover - impossible
            raise LinkError("both regions claim to be primary")
        if x is not primary and y is not primary:
            raise LinkError(
                f"refusing to unlink two secondaries of {owner!r}; "
                "detach them individually via free()"
            )
        owner.detach(y if x is primary else x)

    # -- query functions ---------------------------------------------------------

    def sizeof(self, target: Region | MemObject) -> int:
        """Logical size in bytes of a region or an object."""
        if isinstance(target, Region):
            if target.freed:
                target.check_live()
        elif target.retired:
            target.check_usable()
        return target.size

    def getlinked(self, region: Region, device: str) -> Region | None:
        """The linked region of ``region``'s object on ``device``, if any."""
        if region.freed or device not in self.heaps:
            region.check_live()
            self.heap(device)
        parent = region.parent
        if parent is None:
            return None
        return parent.region_on(device)

    def in_device(self, region: Region, device: str) -> bool:
        """Paper's ``in(x, DEV)``: does ``region`` live on ``device``?"""
        if region.freed or device not in self.heaps:
            region.check_live()
            self.heap(device)
        return region.device_name == device

    def isdirty(self, region: Region) -> bool:
        if region.freed:
            region.check_live()
        return region.dirty

    def setdirty(self, region: Region, dirty: bool = True) -> None:
        if region.freed:
            region.check_live()
        if region.dirty != dirty:
            # Only actual transitions: a dirty bit flipping to True is
            # writeback debt a future eviction must pay; flipping to False
            # (post-copy) is that debt settled. Redundant writes are noise.
            parent = region.parent
            self.tracer.setdirty(
                parent.name if parent is not None else "",
                region.device_name,
                region.size,
                dirty,
            )
        region.dirty = dirty

    def parent(self, region: Region) -> MemObject:
        if region.freed:
            region.check_live()
        parent = region.parent
        if parent is None:
            raise ObjectStateError(f"{region!r} belongs to no object")
        return parent

    def region_at(self, device: str, offset: int) -> Region:
        """The live region starting at ``offset`` on ``device``."""
        region = self._regions.get((device, offset))
        if region is None:
            raise RegionStateError(f"no region at {device}@{offset:#x}")
        return region

    def regions_on(self, device: str) -> Iterator[Region]:
        """Live regions on a device in address order."""
        heap = self.heap(device)
        for block in heap.live_blocks():
            yield self._regions[(device, block.offset)]

    # -- eviction support -----------------------------------------------------------

    def _span(
        self, device: str, start: Region, size: int
    ) -> tuple[Heap, list[int] | None]:
        """``start``'s heap and the span ``evictfrom`` would pick: forward
        from ``start``, falling back to the bottom of the heap when the
        arena end is hit. Rejects a freed ``start``, an unknown device and a
        ``start`` on another device, in that order."""
        heap = self.heaps.get(device)
        if start.freed or heap is None:
            start.check_live()
            heap = self.heap(device)
        if start.heap is not heap:
            raise RegionStateError(f"{start!r} is not on device {device!r}")
        start_offset = start.offset
        victims = heap.collect_span(start_offset, size)
        if victims is None and start_offset != 0:
            victims = heap.collect_span(0, size)
        return heap, victims

    def span_victims(
        self, device: str, start: Region, size: int
    ) -> list[Region] | None:
        """Regions that ``evictfrom(device, start, size, ...)`` would evict.

        Policies use this to pre-check a candidate span (e.g. to skip spans
        containing pinned kernel operands) before committing to an eviction.
        Returns ``None`` when no contiguous span is reachable.
        """
        offsets = self._span(device, start, size)[1]
        if offsets is None:
            return None
        regions = self._regions
        return [regions[device, offset] for offset in offsets]

    def evictfrom(
        self,
        device: str,
        start: Region,
        size: int,
        callback: Callable[[Region], None],
    ) -> None:
        """Free a contiguous ``size``-byte span of ``device`` (Listing 2).

        Walks forward from ``start``, invoking ``callback`` (typically the
        policy's ``evict``) on every live region in the span. If the arena
        end is reached first, retries once from the bottom of the heap. The
        callback must leave each region freed; a region it leaves live (for
        example because the object is pinned) aborts with ``PolicyError``
        so policies cannot silently fail to make room.
        """
        heap, victims = self._span(device, start, size)
        if victims is None:
            raise OutOfMemoryError(device, size, heap.free_bytes)
        self.tracer.evict_scan(device, len(victims), size)
        for offset in victims:
            region = self._regions[(device, offset)]
            callback(region)
            if not region.freed:
                raise PolicyError(
                    f"evictfrom callback left {region!r} live; cannot make room"
                )

    # -- maintenance --------------------------------------------------------------

    def defragment(self, device: str) -> int:
        """Compact a heap, re-pointing all affected regions."""
        heap = self.heap(device)
        moves: list[tuple[int, int]] = []

        def on_move(old: int, new: int, size: int) -> None:
            moves.append((old, new))

        moved = heap.defragment(on_move)
        for old, new in moves:
            region = self._regions.pop((device, old))
            region.offset = new
            self._regions[(device, new)] = region
        if moved:
            self.tracer.defrag(device, moved)
        return moved

    def check_invariants(self) -> None:
        """Validate cross-layer consistency (used by tests after every op)."""
        for heap in self.heaps.values():
            heap.allocator.check_invariants()
        for (device, offset), region in self._regions.items():
            if region.freed:
                raise AssertionError(f"freed region {region!r} still registered")
            if region.device_name != device or region.offset != offset:
                raise AssertionError(f"region index out of sync for {region!r}")
            if region.parent is not None:
                if region.parent.region_on(device) is not region:
                    raise AssertionError(f"{region!r} not known to its object")
        for obj in self.objects.values():
            for region in obj.regions():
                if self._regions.get((region.device_name, region.offset)) is not region:
                    raise AssertionError(f"{obj!r} holds unregistered {region!r}")

    def check(self) -> None:
        """Alias for :meth:`check_invariants` — the post-recovery sweep the
        chaos suite runs after every fault plan."""
        self.check_invariants()

"""Objects and regions: the level of indirection at the heart of the design.

Section III-C: a *region* is a contiguous slice of one device's heap that
holds either the current data for an object (the *primary*) or a copy (a
*secondary*). Two regions are *linked* when they belong to the same object.
A secondary is *valid* while the primary is clean, and *stale* once the
primary has been written without propagating the change.

Invariants enforced here and in the manager:

* a region belongs to at most one object, and an object holds at most one
  region per device (linking a second region on the same device is an error);
* exactly one of an object's regions is the primary (until the object is
  retired);
* freed regions are inert — any further use raises
  :class:`~repro.errors.RegionStateError`;
* a pinned object's primary cannot change (kernels resolve the indirection
  once at launch; Section III-C "an object's primary cannot change during
  the execution of a kernel").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import LinkError, ObjectStateError, RegionStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.memory.heap import Heap

__all__ = ["Region", "MemObject", "id_watermarks", "restore_id_floor"]


class _IdSource:
    """A restorable monotonic id counter.

    ``itertools.count`` would do for a single process, but snapshot/restore
    (:mod:`repro.runtime.elastic`) needs to export the high-water mark and
    re-seed a fresh process so auto-generated names like ``obj{id}`` stay
    deterministic across the restore boundary.
    """

    __slots__ = ("next_id",)

    def __init__(self, start: int = 0) -> None:
        self.next_id = start

    def __call__(self) -> int:
        value = self.next_id
        self.next_id = value + 1
        return value

    def floor(self, minimum: int) -> None:
        """Never hand out an id below ``minimum`` (restore-time re-seed)."""
        if minimum > self.next_id:
            self.next_id = minimum


_region_ids = _IdSource()
_object_ids = _IdSource()


def id_watermarks() -> dict[str, int]:
    """The next region/object ids this process would assign (snapshot)."""
    return {"region": _region_ids.next_id, "object": _object_ids.next_id}


def restore_id_floor(watermarks: dict[str, int]) -> None:
    """Raise the id counters to at least a snapshot's watermarks.

    Floors (never lowers) so restoring an old snapshot into a long-lived
    process cannot recycle ids that are already in use here.
    """
    _region_ids.floor(int(watermarks.get("region", 0)))
    _object_ids.floor(int(watermarks.get("object", 0)))


class Region:
    """A contiguous allocation on one heap, possibly backing an object."""

    __slots__ = (
        "id", "heap", "device_name", "offset", "size", "parent", "dirty",
        "freed", "ready_at", "tenant",
    )

    def __init__(self, heap: "Heap", offset: int, size: int) -> None:
        self.id = _region_ids()
        self.heap = heap
        # A region never changes heap (defragmentation only rewrites
        # ``offset``), so its device name is fixed at birth.
        self.device_name = heap.device.name
        self.offset = offset
        self.size = size
        self.parent: MemObject | None = None
        self.dirty = False
        self.freed = False
        # Virtual time at which in-flight (asynchronous) data movement into
        # this region completes; 0.0 means the contents are ready now.
        self.ready_at = 0.0
        # The tenant whose quota this region is charged to: whoever was
        # active when it was allocated. None = uncharged (no quotas set).
        self.tenant: str | None = None

    @property
    def is_primary(self) -> bool:
        return self.parent is not None and self.parent.primary is self

    def check_live(self) -> None:
        if self.freed:
            raise RegionStateError(f"{self!r} was already freed")

    def __repr__(self) -> str:
        owner = f" of obj#{self.parent.id}" if self.parent is not None else ""
        state = "freed" if self.freed else ("dirty" if self.dirty else "clean")
        return (
            f"Region#{self.id}({self.device_name}@{self.offset:#x}, "
            f"{self.size} B, {state}{owner})"
        )


class MemObject:
    """A logical datum: a size, a primary region, and linked secondaries."""

    __slots__ = ("id", "size", "name", "retired", "pin_count", "_regions", "primary")

    def __init__(self, size: int, name: str = "") -> None:
        if size <= 0:
            raise ObjectStateError(f"object size must be positive, got {size}")
        self.id = _object_ids()
        self.size = size
        self.name = name or f"obj{self.id}"
        self.retired = False
        self.pin_count = 0
        self._regions: dict[str, Region] = {}
        # Written only by attach/detach below; everyone else reads it.
        self.primary: Region | None = None

    # -- state queries ------------------------------------------------------

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    def regions(self) -> Iterator[Region]:
        """All regions currently backing this object (primary included)."""
        return iter(list(self._regions.values()))

    def region_on(self, device_name: str) -> Region | None:
        return self._regions.get(device_name)

    def check_usable(self) -> None:
        if self.retired:
            raise ObjectStateError(f"{self!r} was retired and cannot be used")

    # -- attachment (called only by the DataManager) --------------------------

    def attach(self, region: Region, *, primary: bool) -> None:
        if region.freed:
            region.check_live()
        if region.parent is not None and region.parent is not self:
            raise LinkError(f"{region!r} already belongs to {region.parent!r}")
        existing = self._regions.get(region.device_name)
        if existing is not None and existing is not region:
            raise LinkError(
                f"{self!r} already has a region on {region.device_name!r}"
            )
        if (
            primary
            and self.pinned
            and self.primary is not None
            and self.primary is not region
        ):
            # Validate before any mutation so a rejected attach leaves the
            # object untouched.
            raise ObjectStateError(
                f"cannot change primary of pinned {self!r} (a kernel holds it)"
            )
        region.parent = self
        self._regions[region.device_name] = region
        if primary:
            self.primary = region

    def detach(self, region: Region) -> None:
        if self._regions.get(region.device_name) is not region:
            raise LinkError(f"{region!r} is not attached to {self!r}")
        if region is self.primary:
            if self.pinned:
                raise ObjectStateError(
                    f"cannot detach primary of pinned {self!r} (a kernel holds it)"
                )
            self.primary = None
        del self._regions[region.device_name]
        region.parent = None

    # -- pinning --------------------------------------------------------------

    def pin(self) -> None:
        """Freeze the primary for the duration of a kernel."""
        if self.retired or self.primary is None:
            self.check_usable()
            raise ObjectStateError(f"cannot pin {self!r}: it has no primary region")
        self.pin_count += 1

    def unpin(self) -> None:
        MemObject.unpin_all((self,))

    @staticmethod
    def unpin_all(objs: Iterable["MemObject"]) -> None:
        """Release one pin on each of ``objs`` in order (a kernel's pinned
        operands, in one sweep); the first unbalanced one raises."""
        for obj in objs:
            if obj.pin_count <= 0:
                raise ObjectStateError(f"unbalanced unpin of {obj!r}")
            obj.pin_count -= 1

    def __repr__(self) -> str:
        where = self.primary.device_name if self.primary is not None else "nowhere"
        flags = "retired " if self.retired else ""
        return f"MemObject#{self.id}({self.name!r}, {self.size} B, {flags}primary on {where})"

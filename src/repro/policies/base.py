"""Eviction and prefetch built from the data-management API.

These two functions are line-for-line transcriptions of the paper's
Listing 1 (``evict``) and Listing 2 (``prefetch``), written against
:class:`~repro.core.manager.DataManager`. They are deliberately free
functions: the listings demonstrate that a policy author needs *only* the
data-management API, and keeping them standalone lets several policies share
them (and lets the tests exercise them in isolation).
"""

from __future__ import annotations

from typing import Callable

from repro.core.manager import DataManager
from repro.core.object import MemObject, Region
from repro.errors import OutOfMemoryError

__all__ = [
    "evict_object",
    "prefetch_object",
    "emit_decision",
    "DECISION_REJECTED_LIMIT",
]

# Rejected-candidate entries kept per decision event. Victim scans walk the
# whole LRU order, so an unbounded list would make one decision event scale
# with the heap's object count; the first N (coldest first) are the
# candidates the policy most wanted and could not use — the informative ones.
DECISION_REJECTED_LIMIT = 24


def emit_decision(
    tracer,
    *,
    policy: str,
    device: str,
    need: int,
    chosen: str,
    rejected: list[dict],
    considered: int,
    action: str = "select_victim",
    **extra,
) -> None:
    """Emit one structured ``decision`` event (docs/observability.md).

    Records the victim a policy chose (``chosen`` is ``""`` when the scan
    came up empty — the precursor to an OOM/recovery climb) *and* the
    considered-but-rejected candidates with their reasons, so a trace reader
    can answer "why was *this* object evicted and not that one?". Only a
    full trace wants the rejected list, so callers build it (and call this)
    under their own enabled-tracer guard; the untraced scan builds nothing.
    """
    dropped = 0
    if len(rejected) > DECISION_REJECTED_LIMIT:
        dropped = len(rejected) - DECISION_REJECTED_LIMIT
        rejected = rejected[:DECISION_REJECTED_LIMIT]
    tracer.decision(
        policy, action, device, need, chosen, considered, rejected, dropped,
        **extra,
    )


def evict_object(
    dm: DataManager, obj: MemObject, fast: str, slow: str
) -> bool:
    """Move ``obj``'s primary from ``fast`` to ``slow`` (paper Listing 1).

    If a linked (clean) copy already exists in slow memory the expensive
    cross-device copy is elided — the optimisation of Listing 1 lines 11-13.
    Returns True when an eviction actually happened (primary was in fast).
    """
    x = dm.getprimary(obj)
    if not dm.in_device(x, fast):
        return False
    y = dm.getlinked(x, slow)
    sz = dm.sizeof(x)
    allocated = False
    if y is None:
        y = dm.allocate(slow, sz)
        allocated = True
    if dm.isdirty(x) or allocated:
        dm.copyto(y, x)
        dm.setdirty(y, False)
    dm.setprimary(obj, y)
    if not allocated:
        dm.unlink(x, y)
    dm.free(x)
    return True


def prefetch_object(
    dm: DataManager,
    obj: MemObject,
    fast: str,
    slow: str,
    *,
    force: bool = False,
    find_start: Callable[[int], Region | None] | None = None,
    evict_callback: Callable[[Region], None] | None = None,
) -> Region | None:
    """Move ``obj``'s primary from ``slow`` into ``fast`` (paper Listing 2).

    When fast memory is full and ``force`` is set, ``find_start`` picks an
    eviction starting region (the paper suggests an LRU heuristic) and
    ``evictfrom`` frees a contiguous span through ``evict_callback``. The
    slow-memory region stays *linked* as a clean secondary, so a later
    eviction of unmodified data costs nothing.

    Returns the new fast primary, or ``None`` when no room could be made.
    """
    x = dm.getprimary(obj)
    if not dm.in_device(x, slow):
        return dm.getprimary(obj)
    sz = dm.sizeof(obj)
    y = dm.try_allocate(fast, sz)
    if y is None:
        if not force:
            return None
        if find_start is None or evict_callback is None:
            raise OutOfMemoryError(fast, sz, dm.free_bytes(fast))
        start = find_start(sz)
        if start is None:
            return None
        dm.evictfrom(fast, start, sz, evict_callback)
        y = dm.try_allocate(fast, sz)
        if y is None:
            return None
    dm.copyto(y, x)
    dm.setdirty(x, False)
    dm.link(x, y)
    dm.setprimary(obj, y)
    dm.setdirty(y, False)
    return y

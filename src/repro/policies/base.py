"""Eviction and prefetch built from the data-management API.

The four building blocks of the paper's Listing 1 (``evict_object``) and
Listing 2 (``prefetch_object``, its ``find_region`` as
``find_eviction_start``, and its "pick a start, ``evictfrom``" step as
``make_room``), written against :class:`~repro.core.manager.DataManager`.
They are deliberately free functions: the listings demonstrate that a policy
author needs *only* the data-management API, and keeping them standalone
lets several policies share them (and lets the tests exercise them in
isolation). What a policy adds is the *order* it offers victims in.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.manager import DataManager
from repro.core.object import MemObject, Region
from repro.errors import OutOfMemoryError

__all__ = [
    "evict_object",
    "prefetch_object",
    "find_eviction_start",
    "make_room",
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
    **extra,
) -> None:
    """Emit one structured ``decision`` event (docs/observability.md).

    Records the victim a policy chose (``chosen`` is ``""`` when the scan
    came up empty — the precursor to an OOM/recovery climb) *and* the
    considered-but-rejected candidates with their reasons, so a trace reader
    can answer "why was *this* object evicted and not that one?". Only a
    full trace wants the rejected list, so :func:`find_eviction_start`
    builds it (and calls this) under its enabled-tracer guard; the untraced
    scan builds nothing.
    """
    dropped = 0
    if len(rejected) > DECISION_REJECTED_LIMIT:
        dropped = len(rejected) - DECISION_REJECTED_LIMIT
        rejected = rejected[:DECISION_REJECTED_LIMIT]
    tracer.decision(
        policy, "select_victim", device, need, chosen, considered, rejected,
        dropped, **extra,
    )


def evict_object(
    dm: DataManager, obj: MemObject, fast: str, slow: str, *, room: Region | None = None
) -> bool:
    """Move ``obj``'s primary from ``fast`` to ``slow`` (paper Listing 1).

    If a linked (clean) copy already exists in slow memory the expensive
    cross-device copy is elided — the optimisation of Listing 1 lines 11-13.
    ``room`` is a region the caller already reserved in ``slow`` for an
    object it knows has no linked copy there (a multi-tier demotion has to
    make that room itself, by cascading); without it the listing allocates.
    Returns True when an eviction actually happened (primary was in fast).
    """
    x = dm.getprimary(obj)
    if not dm.in_device(x, fast):
        return False
    y = dm.getlinked(x, slow)
    sz = dm.sizeof(x)
    allocated = False
    if y is None:
        y = room if room is not None else dm.allocate(slow, sz)
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
        return x
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
        # Pinned for the eviction only: a demotion cascading into ``slow``
        # (three or more tiers) must not pick ``obj`` and free ``x``.
        obj.pin()
        try:
            dm.evictfrom(fast, start, sz, evict_callback)
        finally:
            obj.unpin()
        y = dm.try_allocate(fast, sz)
        if y is None:
            return None
    dm.copyto(y, x)
    dm.setdirty(x, False)
    dm.link(x, y)
    dm.setprimary(obj, y)
    dm.setdirty(y, False)
    return y


def _recency_rank(rank: int, candidate: MemObject) -> dict:
    return {"rank": rank}


def find_eviction_start(
    dm: DataManager,
    tracer,
    device: str,
    size: int,
    ranked: Iterable[tuple[int | None, MemObject]],
    *,
    policy: str,
    absent: str,
    describe: Callable[[int | None, MemObject], dict] = _recency_rank,
    **extra,
) -> Region | None:
    """Listing 2's ``find_region``: the first candidate of ``ranked`` that is
    resident on ``device``, unpinned, and starts a ``size``-byte span clear
    of pinned operands.

    ``ranked`` yields ``(rank, object)`` pairs in the order the policy wants
    them evicted — the only thing the LRU-family policies differ in. When
    tracing is on, the scan doubles as an explainability source: it emits
    one ``decision`` event recording the chosen victim *and* every candidate
    it skipped, with the reason (``absent`` — not resident on the device —
    pinned, no contiguous span, span holds a pinned operand) and whatever
    ``describe(rank, object)`` says about its standing (the recency rank by
    default); ``extra`` fields go on the event itself. The untraced scan
    builds none of that.
    """
    # Extra work only a full trace wants: the rejected-candidate list.
    rejected: list[dict] | None = [] if tracer.enabled else None
    considered = 0
    start, chosen, standing = None, "", {}
    for rank, candidate in ranked:
        considered += 1
        primary = candidate.primary
        if primary is None or primary.device_name != device:
            reason = absent
        elif candidate.pinned:
            reason = "pinned"
        else:
            victims = dm.span_victims(device, primary, size)
            if victims is None:
                reason = "no_contiguous_span"
            elif any(v.parent is not None and v.parent.pinned for v in victims):
                reason = "span_pinned"
            else:
                start = primary
                if rejected is not None:
                    chosen, standing = candidate.name, describe(rank, candidate)
                break
        if rejected is not None:
            rejected.append(
                {"obj": candidate.name, **describe(rank, candidate), "reason": reason}
            )
    if rejected is not None:
        emit_decision(
            tracer,
            policy=policy,
            device=device,
            need=size,
            chosen=chosen,
            rejected=rejected,
            considered=considered,
            **standing,
            **extra,
        )
    return start


def make_room(
    dm: DataManager,
    device: str,
    size: int,
    find_start: Callable[[int], Region | None],
    evict_callback: Callable[[Region], None],
) -> bool:
    """Free a contiguous ``size``-byte span of ``device`` (Listing 2, lines
    6-8): ``find_start`` picks where, ``evictfrom`` sweeps the span through
    ``evict_callback``. ``False`` when no start qualifies or the callback
    ran out of room to evict *into*; the caller allocates again on ``True``.
    """
    start = find_start(size)
    if start is None:
        return False
    try:
        dm.evictfrom(device, start, size, evict_callback)
    except OutOfMemoryError:
        return False
    return True

"""Recency tracking for eviction-victim selection.

Listing 2's ``find_region`` selects "an initial region via some heuristic
like LRU". :class:`LruTracker` is that heuristic: an ordered set of objects
from coldest to hottest. ``archive`` demotes an object straight to the cold
end — the paper's "prioritise the annotated objects for future eviction if
memory pressure is experienced" — without moving any data.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator

from repro.core.object import MemObject

__all__ = ["LruTracker"]


class LruTracker:
    """Ordered set of objects, coldest first.

    ``touch``, ``demote`` and ``discard`` are O(1): the order is an
    :class:`~collections.OrderedDict` keyed by object id, whose
    ``move_to_end`` reaches either end without rebuilding anything.
    ``ranked`` walks the live order, so a victim scan costs what it examines.
    """

    def __init__(self) -> None:
        self._order: OrderedDict[int, MemObject] = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, obj: MemObject) -> bool:
        return obj.id in self._order

    def touch(self, obj: MemObject) -> None:
        """Mark ``obj`` most recently used (hot end)."""
        order = self._order
        order[obj.id] = obj
        order.move_to_end(obj.id)

    def touch_all(self, objs: Iterable[MemObject]) -> None:
        """:meth:`touch` each of ``objs`` in order (one kernel's operands)."""
        order = self._order
        move_to_end = order.move_to_end
        for obj in objs:
            try:
                move_to_end(obj.id)
            except KeyError:  # first use: enters the order at the hot end
                order[obj.id] = obj

    def demote(self, obj: MemObject) -> None:
        """Send ``obj`` to the cold end (the ``archive`` reaction)."""
        order = self._order
        order[obj.id] = obj
        order.move_to_end(obj.id, last=False)

    def discard(self, obj: MemObject) -> None:
        self._order.pop(obj.id, None)

    def ranked(self) -> Iterator[tuple[int, MemObject]]:
        """``(recency_rank, object)`` pairs, coldest first (rank 0 = coldest).

        The rank is the score LRU-family policies report in their
        ``decision`` trace events: it says *why* an object was the preferred
        victim (low rank) or a reluctant one (high rank) at selection time.

        A live, read-only walk: finish it (or drop it) before the order is
        mutated — advancing it after a ``touch``, ``demote`` or ``discard``
        raises ``RuntimeError`` instead of reading a stale order.
        """
        return enumerate(self._order.values())

    def clear(self) -> None:
        self._order.clear()

"""LRU tracker ordering semantics."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.object import MemObject
from repro.policies.lru import LruTracker


def objs(n):
    return [MemObject(64, f"o{i}") for i in range(n)]


def coldest_first(tracker):
    return [obj for _, obj in tracker.ranked()]


def test_touch_orders_cold_to_hot():
    tracker = LruTracker()
    a, b, c = objs(3)
    for obj in (a, b, c):
        tracker.touch(obj)
    assert coldest_first(tracker) == [a, b, c]


def test_touch_moves_to_hot_end():
    tracker = LruTracker()
    a, b, c = objs(3)
    for obj in (a, b, c):
        tracker.touch(obj)
    tracker.touch(a)
    assert coldest_first(tracker) == [b, c, a]


def test_demote_moves_to_cold_end():
    tracker = LruTracker()
    a, b, c = objs(3)
    for obj in (a, b, c):
        tracker.touch(obj)
    tracker.demote(c)
    assert coldest_first(tracker) == [c, a, b]


def test_demote_untracked_inserts_cold():
    tracker = LruTracker()
    a, b = objs(2)
    tracker.touch(a)
    tracker.demote(b)
    assert coldest_first(tracker) == [b, a]


def test_discard():
    tracker = LruTracker()
    a, b = objs(2)
    tracker.touch(a)
    tracker.touch(b)
    tracker.discard(a)
    assert a not in tracker
    assert coldest_first(tracker) == [b]
    tracker.discard(a)  # idempotent


def test_contains_and_len():
    tracker = LruTracker()
    a, b = objs(2)
    tracker.touch(a)
    assert a in tracker and b not in tracker
    assert len(tracker) == 1


@pytest.mark.parametrize("mutation", ["touch", "demote", "discard"])
def test_ranked_walk_fails_loudly_after_mutation(mutation):
    """``ranked()`` is a live walk, not a snapshot: advancing it after the
    order changed raises instead of reading a stale (or skipping) order."""
    tracker = LruTracker()
    items = objs(4)
    for obj in items:
        tracker.touch(obj)
    walk = tracker.ranked()
    assert next(walk) == (0, items[0])
    getattr(tracker, mutation)(items[2])
    with pytest.raises(RuntimeError):
        next(walk)
    # A fresh walk sees the new order; a dropped one costs nothing.
    assert len(list(tracker.ranked())) == len(tracker)


def test_clear():
    tracker = LruTracker()
    for obj in objs(3):
        tracker.touch(obj)
    tracker.clear()
    assert len(tracker) == 0


# -- model-based: the tracker against a plain list, coldest first --------------

POOL = 6  # few objects, so touches, demotes and discards keep colliding


index = st.integers(min_value=0, max_value=POOL - 1)


@given(
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["touch", "demote", "discard", "clear"]), index),
            # one kernel's operands: repeats allowed, the empty list too
            st.tuples(st.just("touch_all"), st.lists(index, max_size=4)),
        ),
        max_size=80,
    )
)
@settings(max_examples=120, deadline=None)
def test_tracker_matches_a_plain_list_reference(ops):
    pool = objs(POOL)
    tracker = LruTracker()
    reference: list[MemObject] = []
    for op, index in ops:
        before = list(reference)
        stale = tracker.ranked()  # opened before the op, advanced after it
        next(stale, None)
        unfinished = len(before) > 1
        reordered = False  # by a step of a batch that a later step undid
        if op == "clear":
            tracker.clear()
            reference.clear()
        elif op == "touch_all":
            chosen = [pool[i] for i in index]
            tracker.touch_all(chosen)
            for obj in chosen:
                reordered = reordered or reference[-1:] != [obj]
                if obj in reference:
                    reference.remove(obj)
                reference.append(obj)
        else:
            obj = pool[index]
            if obj in reference:
                reference.remove(obj)
            getattr(tracker, op)(obj)
            if op == "touch":
                reference.append(obj)
            elif op == "demote":
                reference.insert(0, obj)
        assert list(tracker.ranked()) == list(enumerate(reference))
        if unfinished and (reordered or reference != before):
            with pytest.raises(RuntimeError):
                next(stale)
        elif unfinished:
            assert list(stale) == list(enumerate(reference))[1:]
        assert len(tracker) == len(reference)
        for candidate in pool:
            assert (candidate in tracker) == (candidate in reference)


def test_pickle_round_trip_preserves_order():
    tracker = LruTracker()
    a, b, c, d = objs(4)
    for obj in (a, b, c, d):
        tracker.touch(obj)
    tracker.demote(c)
    tracker.touch(a)
    restored = pickle.loads(pickle.dumps(tracker))
    assert [o.name for o in coldest_first(restored)] == [
        o.name for o in coldest_first(tracker)
    ] == ["o2", "o1", "o3", "o0"]
    # Still a working tracker, not just a readable one.
    hottest = next(o for o in coldest_first(restored) if o.name == "o0")
    restored.demote(hottest)
    assert [o.name for o in coldest_first(restored)] == ["o0", "o2", "o1", "o3"]


def test_demote_reorders_in_place():
    """The ``archive`` reaction must not rebuild the order: one demote per
    hint on thousands of live objects is the tiny-objects regime."""
    tracker = LruTracker()
    items = objs(20_000)
    for obj in items:
        tracker.touch(obj)
    order = tracker._order
    tracker.demote(items[-1])
    tracker.demote(MemObject(64, "newcomer"))
    assert tracker._order is order
    assert len(tracker) == 20_001
    coldest = coldest_first(tracker)
    assert [o.name for o in coldest[:3]] == ["newcomer", "o19999", "o0"]

"""Listing 2's ``find_region`` and make-room step, written once.

``find_eviction_start`` is checked against the naive loop printed in
docs/policy-cookbook.md (Recipe 4, "what it does"), kept here as the
reference: random heaps, request sizes, pin sets and candidate orders must
give the same region untraced and traced, and the traced ``decision`` event
must carry exactly the reference's chosen victim, ``considered`` count and
rejected list.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.manager import DataManager
from repro.errors import OutOfMemoryError, PolicyError
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice
from repro.memory.heap import Heap
from repro.policies import adaptive, multitier, optimizing
from repro.policies.base import (
    DECISION_REJECTED_LIMIT,
    evict_object,
    find_eviction_start,
    make_room,
)
from repro.sim.clock import SimClock
from repro.telemetry.trace import DECISION, NullTracer, Tracer
from repro.units import KiB

FAST, SLOW = "DRAM", "NVRAM"
FAST_CAPACITY = 64 * KiB


def reference_scan(manager, device, size, ranked, absent):
    """The cookbook's hand loop, plus the bookkeeping a decision reports."""
    rejected, considered = [], 0

    def reject(candidate, rank, reason):
        rejected.append({"obj": candidate.name, "rank": rank, "reason": reason})

    for rank, candidate in ranked:
        considered += 1
        primary = candidate.primary
        if primary is None or primary.device_name != device:
            reject(candidate, rank, absent)
            continue
        if candidate.pinned:
            reject(candidate, rank, "pinned")
            continue
        victims = manager.span_victims(device, primary, size)
        if victims is None:
            reject(candidate, rank, "no_contiguous_span")
            continue
        if any(v.parent is not None and v.parent.pinned for v in victims):
            reject(candidate, rank, "span_pinned")
            continue
        return primary, candidate.name, rank, considered, rejected
    return None, "", None, considered, rejected


def build_heap(objects):
    """A manager whose fast heap holds ``objects`` in order, holes included.

    Each entry is ``(KiB, where)``: ``fast`` objects that do not fit spill to
    slow memory like a policy's placement would; ``hole`` entries are freed
    again once everything is placed, leaving the gaps a real heap has.
    """
    clock = SimClock()
    manager = DataManager(
        {
            FAST: Heap(MemoryDevice.dram(FAST_CAPACITY)),
            SLOW: Heap(MemoryDevice.nvram(1024 * KiB)),
        },
        CopyEngine(clock),
    )
    live, holes = [], []
    for index, (kib, where) in enumerate(objects):
        region = None
        if where != "slow":
            region = manager.try_allocate(FAST, kib * KiB)
        if where == "hole":
            if region is not None:
                holes.append(region)
            continue
        obj = manager.new_object(kib * KiB, f"o{index}")
        if where != "unplaced":
            manager.setprimary(
                obj, region or manager.allocate(SLOW, kib * KiB)
            )
        live.append(obj)
    for region in holes:
        manager.free(region)
    return manager, clock, live


@given(
    objects=st.lists(
        st.tuples(
            st.integers(1, 12),
            st.sampled_from(["fast"] * 5 + ["hole", "hole", "slow", "unplaced"]),
        ),
        min_size=1,
        max_size=40,
    ),
    need_kib=st.integers(1, 80),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_scan_matches_the_cookbook_loop(objects, need_kib, data):
    manager, clock, live = build_heap(objects)
    if not live:
        return
    order = data.draw(st.permutations(live))
    order = order[: data.draw(st.integers(1, len(order)))]
    for obj in data.draw(st.lists(st.sampled_from(live), unique=True)):
        if obj.primary is not None:
            obj.pin()
    size = need_kib * KiB

    expected, chosen, rank, considered, rejected = reference_scan(
        manager, FAST, size, enumerate(order), "not_resident_fast"
    )

    def scan(tracer):
        return find_eviction_start(
            manager, tracer, FAST, size, enumerate(order),
            policy="Reference", absent="not_resident_fast", round=7,
        )

    assert scan(NullTracer()) is expected
    tracer = Tracer(clock)
    assert scan(tracer) is expected
    (event,) = [e for e in tracer.events if e.kind == DECISION]
    want = {
        "policy": "Reference",
        "action": "select_victim",
        "device": FAST,
        "need": size,
        "chosen": chosen,
        "considered": considered,
        "rejected": rejected[:DECISION_REJECTED_LIMIT],
        "rejected_dropped": max(0, len(rejected) - DECISION_REJECTED_LIMIT),
        "round": 7,
    }
    if expected is not None:
        want["rank"] = rank
    assert event.args == want


def test_describe_replaces_the_rank_on_entries_and_on_the_event():
    manager, clock, (pinned, victim) = build_heap([(16, "fast"), (16, "fast")])
    pinned.pin()
    tracer = Tracer(clock)
    start = find_eviction_start(
        manager, tracer, FAST, 16 * KiB, [(None, pinned), (None, victim)],
        policy="Scored", absent="not_resident_fast",
        describe=lambda rank, obj: {"score": obj.size / KiB},
    )
    assert start is victim.primary
    (event,) = [e for e in tracer.events if e.kind == DECISION]
    assert event.args["score"] == 16.0 and "rank" not in event.args
    assert event.args["rejected"] == [
        {"obj": pinned.name, "score": 16.0, "reason": "pinned"}
    ]


# -- laziness: a scan pays for the candidates it examines, not for what is alive --

POPULATION = 5_000


class CountingOrder(OrderedDict):
    """An LRU order that counts every entry a walk pulls out of it."""

    pulled = 0

    def values(self):
        for value in super().values():
            self.pulled += 1
            yield value


# policy -> (module whose scan is intercepted, constructor, scan, its tracker)
SCANS = {
    "OptimizingPolicy": (
        optimizing,
        optimizing.OptimizingPolicy,
        lambda policy, size: policy._find_eviction_start(size),
        lambda policy: policy.lru,
    ),
    "MultiTierPolicy": (
        multitier,
        lambda: multitier.MultiTierPolicy([FAST, SLOW]),
        lambda policy, size: policy._find_eviction_start(0, size),
        lambda policy: policy.lru[FAST],
    ),
    # Scores every live object by design; what it *hands on* is
    # ``chain(skipped, probation + protected)`` and must be walked lazily.
    "AdaptivePolicy": (
        adaptive,
        adaptive.AdaptivePolicy,
        lambda policy, size: policy._find_eviction_start(size),
        None,
    ),
}


@pytest.mark.parametrize("pinned", [0, 3])
@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_consumes_only_the_candidates_it_examines(monkeypatch, name, pinned):
    module, make, scan, tracker_of = SCANS[name]
    manager = DataManager(
        {
            FAST: Heap(MemoryDevice.dram(POPULATION * KiB)),
            SLOW: Heap(MemoryDevice.nvram(POPULATION * KiB)),
        },
        CopyEngine(SimClock()),
    )
    policy = make()
    policy.bind(manager)
    live = [manager.new_object(KiB, f"o{i}") for i in range(POPULATION)]
    for obj in live:
        assert policy.place(obj).device_name == FAST
    for obj in live[:pinned]:
        obj.pin()

    consumed = []

    def counting_scan(dm, tracer, device, size, ranked, **kwargs):
        def counted():
            for rank, candidate in ranked:
                consumed.append(candidate)
                yield rank, candidate

        return find_eviction_start(dm, tracer, device, size, counted(), **kwargs)

    monkeypatch.setattr(module, "find_eviction_start", counting_scan)
    if tracker_of is not None:
        tracker = tracker_of(policy)
        tracker._order = order = CountingOrder(tracker._order)

    assert scan(policy, KiB) is live[pinned].primary
    assert consumed == live[: pinned + 1]
    if tracker_of is not None:
        # ... and nothing upstream copied the order to produce them.
        assert order.pulled == pinned + 1


class TestMakeRoom:
    def full_fast_heap(self):
        manager, _, live = build_heap([(16, "fast")] * 4)
        return manager, live

    def snapshot(self, manager, live):
        return (
            [(obj.primary.device_name, obj.primary.offset) for obj in live],
            manager.free_bytes(FAST),
            manager.free_bytes(SLOW),
        )

    def test_sweeps_the_span_through_the_callback(self):
        manager, live = self.full_fast_heap()
        made = make_room(
            manager, FAST, 32 * KiB,
            lambda size: live[1].primary,
            lambda region: evict_object(manager, region.parent, FAST, SLOW),
        )
        assert made
        assert [obj.primary.device_name for obj in live] == [
            FAST, SLOW, SLOW, FAST
        ]
        assert manager.try_allocate(FAST, 32 * KiB) is not None

    def test_no_start_means_no_room_and_no_callback(self):
        manager, live = self.full_fast_heap()
        before = self.snapshot(manager, live)
        assert not make_room(manager, FAST, 16 * KiB, lambda size: None, None)
        assert self.snapshot(manager, live) == before

    def test_callback_out_of_memory_is_no_room_with_state_untouched(self):
        manager, live = self.full_fast_heap()
        before = self.snapshot(manager, live)

        def nowhere_to_evict_to(region):
            raise OutOfMemoryError(SLOW, region.size, 0)

        assert not make_room(
            manager, FAST, 16 * KiB,
            lambda size: live[0].primary, nowhere_to_evict_to,
        )
        assert self.snapshot(manager, live) == before
        manager.check_invariants()

    def test_policy_errors_still_propagate(self):
        manager, live = self.full_fast_heap()
        with pytest.raises(PolicyError):
            # A callback that leaves its region live is a policy bug.
            make_room(
                manager, FAST, 16 * KiB,
                lambda size: live[0].primary, lambda region: None,
            )

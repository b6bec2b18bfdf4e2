"""One call is exactly its loops.

``Policy.acquire_operands`` takes one kernel's hints and residency in one
call; its default is the per-object loops (``issue_hints`` then
``resolve_residency``). Whatever a policy does inside an override, it must
leave the state those loops would: same recency order, same statistics,
same bytes moved, same clock, same pins — after every kernel, including one
that raises. Twin sessions run the same random kernels, one through the
policy's one-call entry point, one through the base-class loops
(``will_read``/``will_write`` per operand, ``ensure_resident`` + ``pin`` per
unique operand), and for the two policies that override the entry point a
third through the per-object bodies as they stood before the batch forms
existed, kept here as the reference.

Traced, the one call must also leave the events the loops would: traced
twins run the one-call entry point and the session's loop helpers
(``issue_hints``/``resolve_residency``) against the traced per-operand
loops written out here as the reference, and compare every retained
record as well as the state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy_api import (
    RESIDENCY_LABELS,
    AccessIntent,
    DelegatingPolicy,
    Policy,
)
from repro.core.session import Session, SessionConfig, issue_hints, resolve_residency
from repro.errors import (
    CachedArraysError,
    ObjectStateError,
    OutOfMemoryError,
    PolicyError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import POLICY, FaultPlan, FaultSpec
from repro.faults.policy import FaultyPolicy
from repro.memory.device import MemoryDevice
from repro.policies.adaptive import AdaptivePolicy
from repro.policies.multitier import MultiTierPolicy
from repro.policies.optimizing import OptimizingPolicy
from repro.policies.watchdog import PolicyWatchdog
from repro.units import KiB, MiB

POOL = 10  # objects of 8-24 KiB over 64 KiB of DRAM: always under pressure


class PerObjectReference:
    """``OptimizingPolicy``'s hint, residency and finish bodies one object
    at a time, as written before the batch forms; the one-call entry point
    is the base-class loops over them."""

    acquire_operands = Policy.acquire_operands

    def _note_use(self, obj):
        self._note_uses([obj])

    def will_use(self, obj):
        self._note_use(obj)

    def will_read(self, obj):
        self._note_use(obj)
        if self.prefetch and self._prefetch(obj) is not None:
            self.stats.prefetches += 1

    def will_write(self, obj):
        self._note_use(obj)
        self._prefetch(obj)

    def ensure_resident(self, obj, intent):
        primary = self.manager.getprimary(obj)
        wants_fast = not self.local_alloc or intent is AccessIntent.WRITE
        if wants_fast and primary.device_name == self.slow:
            moved = self._prefetch(obj)
            if moved is not None:
                return moved
            primary = self.manager.getprimary(obj)
        self._note_use(obj)
        return primary

    def on_kernel_finish(self, read, wrote):
        for obj in read:
            self._note_use(obj)
        for obj in wrote:
            self._note_use(obj)
            if obj.primary is not None:
                self.manager.setdirty(obj.primary, True)


class ReferenceOptimizing(PerObjectReference, OptimizingPolicy):
    pass


class ReferenceAdaptive(PerObjectReference, AdaptivePolicy):
    pass


def operand_intents(read_objs, write_objs):
    """One (object, intent) per unique operand, write intent winning."""
    intents = {obj.id: (obj, AccessIntent.READ) for obj in read_objs}
    intents.update((obj.id, (obj, AccessIntent.WRITE)) for obj in write_objs)
    return intents.values()


def acquire(session):
    """What a kernel runs: one policy call for both sweeps, tracer included."""
    policy, tracer = session.policy, session.tracer

    def acquire(reads, writes, hinted, pinned):
        policy.acquire_operands(reads, writes, hinted, pinned, tracer)

    return acquire


def loops(session):
    """The base class's entry point, whatever the policy overrides: the
    per-object loops."""
    policy, tracer = session.policy, session.tracer

    def acquire(reads, writes, hinted, pinned):
        Policy.acquire_operands(policy, reads, writes, hinted, pinned, tracer)

    return acquire


def helpers(session):
    """The session's loop helpers, one per sweep, tracer included."""
    policy, tracer = session.policy, session.tracer

    def acquire(reads, writes, hinted, pinned):
        if hinted:
            issue_hints(policy, tracer, reads, writes)
        resolve_residency(policy, tracer, reads, writes, pinned)

    return acquire


def traced_loops(session):
    """The reference: a traced kernel walking its operands one at a time,
    a hint or residency scope around each per-object call."""
    policy, tracer = session.policy, session.tracer

    def acquire(reads, writes, hinted, pinned):
        if hinted:
            for obj in reads:
                with tracer.hint("will_read", obj):
                    policy.will_read(obj)
            for obj in writes:
                with tracer.hint("will_write", obj):
                    policy.will_write(obj)
        for obj, intent in operand_intents(reads, writes):
            with tracer.scope(RESIDENCY_LABELS[intent], obj):
                policy.ensure_resident(obj, intent)
            obj.pin()
            pinned.append(obj)

    return acquire


class Twin:
    """One session and the entry points its kernels go through."""

    def __init__(
        self, policy, entry, *, devices=(), tracing=False, dram=64 * KiB, nvram=4 * MiB
    ):
        config = (
            SessionConfig(dram=None, nvram=None, devices=devices, tracing=tracing)
            if devices
            else SessionConfig(dram=dram, nvram=nvram, tracing=tracing)
        )
        self.session = Session(config, policy=policy)
        self.policy = policy
        self.acquire = entry(self.session)
        self.objects = []

    def allocate(self, sizes):
        for index, size in enumerate(sizes):
            obj = self.session.new_object(size, f"t{index}")
            self.policy.place(obj)
            self.objects.append(obj)

    def kernel(self, reads, writes, hinted):
        """``CachedArraysAdapter.kernel`` without the timing: hints and
        residency + pins, unpin, finish. Returns what was pinned, or the
        type of the typed error that ended the kernel (an operand the
        policy could neither move nor leave) so the twins compare on it."""
        read_objs = [self.objects[i] for i in reads]
        write_objs = [self.objects[i] for i in writes]
        pinned = []
        try:
            try:
                self.acquire(read_objs, write_objs, hinted, pinned)
                held = [(obj.name, obj.pin_count) for obj in pinned]
            finally:
                for obj in pinned:
                    obj.unpin()
            self.policy.on_kernel_finish(read_objs, write_objs)
        except CachedArraysError as error:
            return type(error)
        return held

    def state(self):
        policy = self.policy
        inner = policy
        while isinstance(inner, DelegatingPolicy):
            inner = inner.inner
        trackers = inner.lru.values() if isinstance(inner.lru, dict) else [inner.lru]
        return {
            "lru": [
                [(rank, obj.name) for rank, obj in tracker.ranked()]
                for tracker in trackers
            ],
            "stats": inner.stats.as_dict(),
            "traffic": self.session.traffic(),
            "clock": self.session.clock.now.hex(),
            "pins": [obj.pin_count for obj in self.objects],
            "where": [
                obj.primary.device_name if obj.primary else None
                for obj in self.objects
            ],
            "adaptive": (
                getattr(inner, "alpha", None),
                getattr(inner, "regrets", None),
                getattr(inner, "quiet_evictions", None),
                getattr(inner, "_recency_clock", None),
                [getattr(inner, "_last_touch", {}).get(o.id) for o in self.objects],
            ),
            "watchdog": (
                getattr(policy, "strikes", None),
                getattr(policy, "quarantined", None),
                list(getattr(policy, "failures", ())),
            ),
            # Every retained record: kind, args, cause, root, root_ts, order.
            "events": [event.to_json() for event in self.session.tracer.events],
        }


indices = st.lists(st.integers(0, POOL - 1), max_size=6)
kernels = st.lists(
    st.tuples(indices, indices, st.booleans()), min_size=1, max_size=24
)
sizes = st.lists(
    st.sampled_from([8 * KiB, 12 * KiB, 16 * KiB, 24 * KiB]),
    min_size=POOL,
    max_size=POOL,
)


def assert_twins_agree(twins, sizes, kernels):
    for twin in twins:
        twin.allocate(sizes)
    first = twins[0]
    for other in twins[1:]:
        assert other.state() == first.state()
    for reads, writes, hinted in kernels:
        outcome = first.kernel(reads, writes, hinted)
        expected = first.state()
        for other in twins[1:]:
            assert other.kernel(reads, writes, hinted) == outcome
            assert other.state() == expected
        if isinstance(outcome, type):
            break  # a run ends at its first typed error
    for twin in twins:
        twin.session.close()


@pytest.mark.parametrize("local_alloc", [True, False], ids=["L", "noL"])
@pytest.mark.parametrize("prefetch", [True, False], ids=["P", "noP"])
@pytest.mark.parametrize(
    "cls, reference",
    [(OptimizingPolicy, ReferenceOptimizing), (AdaptivePolicy, ReferenceAdaptive)],
    ids=["optimizing", "adaptive"],
)
@given(sizes=sizes, kernels=kernels)
@settings(max_examples=40, deadline=None)
def test_batch_forms_match_the_loops_and_the_per_object_reference(
    cls, reference, prefetch, local_alloc, sizes, kernels
):
    toggles = {"local_alloc": local_alloc, "prefetch": prefetch}
    assert_twins_agree(
        [
            Twin(cls(**toggles), acquire),
            Twin(cls(**toggles), loops),
            Twin(reference(**toggles), acquire),
        ],
        sizes,
        kernels,
    )


def multitier_twin(entry, cxl, tracing=False):
    """A MultiTier session over DRAM and NVRAM, with a CXL tier between
    them when ``cxl``: a demotion chain of one step or two."""
    tiers = ["DRAM", "CXL", "NVRAM"] if cxl else ["DRAM", "NVRAM"]
    devices = {
        "DRAM": MemoryDevice.dram(48 * KiB),
        "CXL": MemoryDevice.cxl(64 * KiB),
        "NVRAM": MemoryDevice.nvram(4 * MiB),
    }
    policy = MultiTierPolicy(tiers)
    return Twin(
        policy, entry, devices=tuple(devices[t] for t in tiers), tracing=tracing
    )


@pytest.mark.parametrize("cxl", [False, True])
@given(sizes=sizes, kernels=kernels)
@settings(max_examples=40, deadline=None)
def test_multitier_takes_the_default_loops(cxl, sizes, kernels):
    """MultiTier overrides no batch hook: a kernel's one call is the
    per-object loops, over two tiers or three."""
    assert_twins_agree(
        [multitier_twin(entry, cxl) for entry in (acquire, loops, helpers)],
        sizes,
        kernels,
    )


def guarded(inner_cls, start, every):
    """``PolicyWatchdog(FaultyPolicy(inner))`` with a policy fault injected
    on every ``every``-th guarded operation from ``start`` on."""
    plan = FaultPlan(
        "batch", specs=(FaultSpec(POLICY, start=start, every=every, count=None),)
    )
    faulty = FaultyPolicy(inner_cls(prefetch=True), FaultInjector(plan))
    return PolicyWatchdog(faulty)


@given(
    sizes=sizes,
    kernels=kernels,
    start=st.integers(0, 40),
    every=st.integers(3, 17),
)
@settings(max_examples=60, deadline=None)
def test_a_wrapper_strikes_on_the_same_operand_either_way(
    sizes, kernels, start, every
):
    """The robustness chain inherits the loops: every operand still passes
    through the wrappers' per-object methods, so the same operation draws
    the injected fault, the strike count and the quarantine point agree, and
    the inner policy's one-element sweeps leave the reference's state."""
    assert_twins_agree(
        [
            Twin(guarded(OptimizingPolicy, start, every), acquire),
            Twin(guarded(OptimizingPolicy, start, every), loops),
            Twin(guarded(ReferenceOptimizing, start, every), acquire),
        ],
        sizes,
        kernels,
    )


def test_forwarding_a_batch_to_the_inner_policy_would_hide_faults():
    """Why ``DelegatingPolicy`` must not forward ``acquire_operands``: a
    wrapper that did would skip the per-operand fault sites."""

    class Forwarding(FaultyPolicy):
        def acquire_operands(self, reads, writes, hinted, pinned, tracer):
            self.inner.acquire_operands(reads, writes, hinted, pinned, tracer)

    def outcome(wrapper):
        plan = FaultPlan("batch", specs=(FaultSpec(POLICY, start=POOL + 2),))
        twin = Twin(wrapper(OptimizingPolicy(), FaultInjector(plan)), acquire)
        twin.allocate([8 * KiB] * POOL)  # operations 0..POOL-1: the place() calls
        return twin.kernel([0, 1, 2], [3], True)

    assert outcome(FaultyPolicy) is PolicyError  # the third operand's hint
    assert outcome(Forwarding) == [(f"t{i}", 1) for i in range(4)]


# -- traced: the same records as the traced per-operand loop ---------------------


@pytest.mark.parametrize(
    "local_alloc, prefetch",
    [(False, False), (True, False), (True, True), (False, True)],
    ids=["CA:0", "CA:L-LM", "CA:LMP", "noL-P"],
)
@pytest.mark.parametrize("cls", [OptimizingPolicy, AdaptivePolicy])
@given(sizes=sizes, kernels=kernels)
@settings(max_examples=40, deadline=None)
def test_a_traced_batch_leaves_the_traced_loops_records(
    cls, local_alloc, prefetch, sizes, kernels
):
    """One ``hint`` event per operand in operand order, every move under
    its operand's scope with the scope's open time as ``root_ts``: owed
    hints go out before the next move or at the end of the sweep."""
    toggles = {"local_alloc": local_alloc, "prefetch": prefetch}
    assert_twins_agree(
        [
            Twin(cls(**toggles), acquire, tracing=True),
            Twin(cls(**toggles), helpers, tracing=True),
            Twin(cls(**toggles), traced_loops, tracing=True),
        ],
        sizes,
        kernels,
    )


@pytest.mark.parametrize("cxl", [False, True])
@given(sizes=sizes, kernels=kernels)
@settings(max_examples=30, deadline=None)
def test_traced_multitier_loops_leave_the_traced_loops_records(cxl, sizes, kernels):
    assert_twins_agree(
        [
            multitier_twin(entry, cxl, tracing=True)
            for entry in (acquire, helpers, traced_loops)
        ],
        sizes,
        kernels,
    )


@given(
    sizes=sizes,
    kernels=kernels,
    start=st.integers(0, 40),
    every=st.integers(3, 17),
)
@settings(max_examples=40, deadline=None)
def test_a_traced_wrapper_leaves_the_traced_loops_records(
    sizes, kernels, start, every
):
    """A wrapper's inherited loop opens each operand's scope; the inner
    policy's one-element sweep runs untraced, so no hint is emitted twice
    and strikes land at the same point of the stream."""
    assert_twins_agree(
        [
            Twin(guarded(OptimizingPolicy, start, every), acquire, tracing=True),
            Twin(guarded(OptimizingPolicy, start, every), helpers, tracing=True),
            Twin(guarded(OptimizingPolicy, start, every), traced_loops, tracing=True),
        ],
        sizes,
        kernels,
    )


@pytest.mark.parametrize(
    "failing, hinted",
    [
        (([3, 4, 0], [1]), ["r3", "r4", "r0"]),
        (([3, 4], [3, 0, 1]), ["r3", "r4", "w3", "w0"]),
    ],
    ids=["in-the-reads", "in-the-writes"],
)
@pytest.mark.parametrize("cls", [OptimizingPolicy, AdaptivePolicy])
def test_a_forced_prefetch_that_raises_mid_sweep_leaves_the_same_records(
    cls, failing, hinted
):
    """NVRAM is full, so the forced prefetch of t0 cannot evict its victim
    and raises mid-sweep: the hints owed for the operands before it are out,
    the ones after it never are, exactly as the per-operand loop left them."""
    twins = [
        Twin(cls(prefetch=True), entry, tracing=True, dram=32 * KiB, nvram=48 * KiB)
        for entry in (acquire, helpers, traced_loops)
    ]
    for twin in twins:
        # t0..t2 are pushed out to NVRAM, which they fill; t3 and t4 hold
        # DRAM. The first kernel moves nothing: its hints are owed to the end.
        twin.allocate([16 * KiB] * 5)
        assert twin.kernel([3], [4], True) == [("t3", 1), ("t4", 1)]
        assert twin.kernel(*failing, True) is OutOfMemoryError
        kinds = {"will_read": "r", "will_write": "w"}
        assert [
            kinds[event.args["hint"]] + event.args["subject"][1:]
            for event in twin.session.tracer.events
            if event.kind == "hint"
        ] == ["r3", "w4", *hinted]
    assert twins[1].state() == twins[0].state()
    assert twins[2].state() == twins[0].state()
    for twin in twins:
        twin.session.close()


@pytest.mark.parametrize("reads, writes", [([0, 1], [2]), ([0], [2, 1])])
def test_a_retired_operand_ends_the_sweep_after_its_own_hint(reads, writes):
    """An operand with no primary raises where the per-operand loop raised,
    after its ``hint`` event: it is owed from the moment it is reached."""
    twins = [
        Twin(OptimizingPolicy(prefetch=True), entry, tracing=True)
        for entry in (acquire, helpers, traced_loops)
    ]
    for twin in twins:
        twin.allocate([8 * KiB] * 3)
        twin.policy.retire(twin.objects[1])
        assert twin.kernel(reads, writes, True) is ObjectStateError
    assert twins[1].state() == twins[0].state()
    assert twins[2].state() == twins[0].state()
    for twin in twins:
        twin.session.close()


@pytest.mark.parametrize("hinted", [True, False], ids=["hinted", "unhinted"])
@pytest.mark.parametrize("cls", [OptimizingPolicy, AdaptivePolicy])
def test_a_sweep_that_raises_notes_the_uses_it_collected(cls, hinted):
    """t0 is used, then the retired t1 raises in the residency sweep, with
    no fetch before it: the one-call entry point notes t0 (and, hinted,
    t2) before the error goes on, as the per-object loops did, so t0 ends
    at the hot end on every path."""
    twins = [Twin(cls(), entry) for entry in (acquire, helpers, loops)]
    for twin in twins:
        twin.allocate([8 * KiB] * 3)
        twin.policy.retire(twin.objects[1])
        assert twin.kernel([0, 1], [2], hinted) is ObjectStateError
        assert [obj.name for _, obj in twin.policy.lru.ranked()] == ["t2", "t0"]
    for twin in twins[1:]:
        assert twin.state() == twins[0].state()
    for twin in twins:
        twin.session.close()


@pytest.mark.parametrize("cls", [OptimizingPolicy, AdaptivePolicy])
def test_a_fetch_reads_the_uses_noted_before_it(cls):
    """DRAM holds t1 and t2, t1 the colder (placing t2 evicted t0). The
    kernel uses t1, then its write target t0 is fetched from NVRAM: t1's
    use is noted before the fetch's victim scan, so t2, not the operand
    just used, is evicted."""
    twins = [
        Twin(cls(), entry, dram=32 * KiB) for entry in (acquire, helpers, loops)
    ]
    for twin in twins:
        twin.allocate([16 * KiB] * 3)
        assert twin.state()["where"] == ["NVRAM", "DRAM", "DRAM"]
        assert twin.kernel([1], [0], True) == [("t1", 1), ("t0", 1)]
        assert twin.state()["where"] == ["DRAM", "DRAM", "NVRAM"]
    for twin in twins[1:]:
        assert twin.state() == twins[0].state()
    for twin in twins:
        twin.session.close()

"""A batch is exactly its loop.

``Policy.hint_operands`` / ``Policy.resolve_operands`` take one kernel's
operand list in one call. Whatever a policy does inside them, it must leave
the state the per-object loops would: same recency order, same statistics,
same bytes moved, same clock, same pins — after every kernel. Twin sessions
run the same random kernels, one through the policy's batch entry points,
one through the base-class loops (``will_read``/``will_write`` per operand,
``ensure_resident`` + ``pin`` per unique operand), and for the two policies
that implement the batch forms a third through the per-object bodies as
they stood before the batch forms existed, kept here as the reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy_api import AccessIntent, DelegatingPolicy, Policy
from repro.core.session import Session, SessionConfig
from repro.errors import CachedArraysError, PolicyError
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
    at a time, as written before the batch forms; the batch entry points
    are the base-class loops over them."""

    hint_operands = Policy.hint_operands
    resolve_operands = Policy.resolve_operands

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


def batch(policy):
    return policy.hint_operands, policy.resolve_operands


def loops(policy):
    def hint(reads, writes):
        Policy.hint_operands(policy, reads, writes)

    def resolve(intents, pinned):
        Policy.resolve_operands(policy, intents, pinned)

    return hint, resolve


class Twin:
    """One session and the entry points its kernels go through."""

    def __init__(self, policy, entry, *, devices=()):
        config = (
            SessionConfig(dram=None, nvram=None, devices=devices)
            if devices
            else SessionConfig(dram=64 * KiB, nvram=4 * MiB)
        )
        self.session = Session(config, policy=policy)
        self.policy = policy
        self.hint, self.resolve = entry(policy)
        self.objects = []

    def allocate(self, sizes):
        for index, size in enumerate(sizes):
            obj = self.session.new_object(size, f"t{index}")
            self.policy.place(obj)
            self.objects.append(obj)

    def kernel(self, reads, writes, hinted):
        """``CachedArraysAdapter.kernel`` without the timing: hints,
        residency + pins, unpin, finish. Returns what was pinned, or the
        type of the typed error that ended the kernel (an operand the
        policy could neither move nor leave) so the twins compare on it."""
        read_objs = [self.objects[i] for i in reads]
        write_objs = [self.objects[i] for i in writes]
        intents = {obj.id: (obj, AccessIntent.READ) for obj in read_objs}
        intents.update((obj.id, (obj, AccessIntent.WRITE)) for obj in write_objs)
        pinned = []
        try:
            if hinted:
                self.hint(read_objs, write_objs)
            try:
                self.resolve(intents.values(), pinned)
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
            ),
            "watchdog": (
                getattr(policy, "strikes", None),
                getattr(policy, "quarantined", None),
                list(getattr(policy, "failures", ())),
            ),
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
            Twin(cls(**toggles), batch),
            Twin(cls(**toggles), loops),
            Twin(reference(**toggles), batch),
        ],
        sizes,
        kernels,
    )


@pytest.mark.parametrize("promote_on_use", [False, True])
@given(sizes=sizes, kernels=kernels)
@settings(max_examples=40, deadline=None)
def test_multitier_takes_the_default_loops(promote_on_use, sizes, kernels):
    def twin(entry):
        devices = (
            MemoryDevice.dram(48 * KiB),
            MemoryDevice.cxl(64 * KiB),
            MemoryDevice.nvram(4 * MiB),
        )
        policy = MultiTierPolicy(
            ["DRAM", "CXL", "NVRAM"], promote_on_use=promote_on_use
        )
        return Twin(policy, entry, devices=devices)

    assert_twins_agree([twin(batch), twin(loops)], sizes, kernels)


def guarded(inner_cls, start, every):
    """``PolicyWatchdog(FaultyPolicy(inner))`` with a policy fault injected
    on every ``every``-th guarded operation from ``start`` on."""
    plan = FaultPlan(
        "batch", specs=(FaultSpec(POLICY, start=start, every=every, count=None),)
    )
    faulty = FaultyPolicy(inner_cls(prefetch=True), FaultInjector(plan))
    return PolicyWatchdog(faulty, max_strikes=4)


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
    the inner policy's one-element batches leave the reference's state."""
    assert_twins_agree(
        [
            Twin(guarded(OptimizingPolicy, start, every), batch),
            Twin(guarded(OptimizingPolicy, start, every), loops),
            Twin(guarded(ReferenceOptimizing, start, every), batch),
        ],
        sizes,
        kernels,
    )


def test_forwarding_a_batch_to_the_inner_policy_would_hide_faults():
    """Why ``DelegatingPolicy`` must not forward the batch forms: a wrapper
    that did would skip the per-operand fault sites."""

    class Forwarding(FaultyPolicy):
        def hint_operands(self, reads, writes):
            self.inner.hint_operands(reads, writes)

        def resolve_operands(self, intents, pinned):
            self.inner.resolve_operands(intents, pinned)

    def outcome(wrapper):
        plan = FaultPlan("batch", specs=(FaultSpec(POLICY, start=POOL + 2),))
        twin = Twin(wrapper(OptimizingPolicy(), FaultInjector(plan)), batch)
        twin.allocate([8 * KiB] * POOL)  # operations 0..POOL-1: the place() calls
        return twin.kernel([0, 1, 2], [3], True)

    assert outcome(FaultyPolicy) is PolicyError  # the third operand's hint
    assert outcome(Forwarding) == [(f"t{i}", 1) for i in range(4)]

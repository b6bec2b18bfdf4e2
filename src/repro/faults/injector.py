"""The :class:`FaultInjector`: deterministic fault firing at runtime.

The injector is the single runtime object a :class:`~repro.faults.plan.FaultPlan`
compiles into. Mechanism components consult it at their injection sites:

* the allocator calls :meth:`alloc_fault` before carving a span,
* the heap calls :meth:`on_defragment` after compaction (clearing any sticky
  fragmentation fault for that device),
* the copy engine calls :meth:`copy_plan` per transfer,
* :class:`~repro.faults.policy.FaultyPolicy` calls :meth:`policy_fault`
  before delegating each policy operation.

The firewall stays intact: mechanism modules never import ``repro.faults``.
The injector reaches them as a duck-typed hook (``fault_hook`` callable on
the allocator, an ``injector`` attribute on heap/engine), wired by
:class:`~repro.core.session.Session`.

Every fired fault is appended to :attr:`FaultInjector.fired` as a
:class:`~repro.faults.plan.FiredFault` stamped with virtual time and emitted
as a ``fault`` trace event, so a chaos run's fault schedule is itself a
replayable artifact (:func:`~repro.faults.plan.replay_plan`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.faults import plan as _plan
from repro.faults.plan import FaultPlan, FaultSpec, FiredFault
from repro.telemetry.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.clock import SimClock

__all__ = ["FaultInjector", "CopyFault", "NO_COPY_FAULT"]


@dataclass(frozen=True)
class CopyFault:
    """What the injector wants done to one copy: failures, slowdown, corruption."""

    failures: int = 0       # consecutive failed attempts before success
    slowdown: float = 1.0   # bandwidth derate factor (>= 1.0)
    corrupt: int = 0        # attempts whose payload is silently corrupted

    @property
    def clean(self) -> bool:
        return self.failures == 0 and self.slowdown == 1.0 and self.corrupt == 0


NO_COPY_FAULT = CopyFault()


class _SpecState:
    """Mutable firing state for one spec: how many times it has fired."""

    __slots__ = ("spec", "fires")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.fires = 0

    def exhausted(self) -> bool:
        return self.spec.count is not None and self.fires >= self.spec.count


def _device_matches(spec: FaultSpec, device: str) -> bool:
    return spec.device == "*" or spec.device == device


def _op_matches(spec: FaultSpec, op: str) -> bool:
    return spec.op == "*" or spec.op == op


class FaultInjector:
    """Fires a :class:`FaultPlan` deterministically against runtime events.

    Eligible operations are counted per site (allocations, copies, policy
    calls); a spec fires when its index arithmetic matches, its probability
    draw (from the plan-seeded RNG) passes, and its fire budget remains.
    """

    def __init__(self, plan: FaultPlan, *, clock: "SimClock | None" = None,
                 tracer: Any = None) -> None:
        self.plan = plan
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.rng = random.Random(plan.seed)
        self.fired: list[FiredFault] = []
        # Disarmed injectors count eligible operations but never fire —
        # the chaos bisector restores a snapshot with the injector disarmed
        # to test whether already-fired faults alone reproduce a failure.
        self.armed = True
        # Per-site eligible-operation counters.
        self._counts: dict[str, int] = {}
        self._states: dict[str, list[_SpecState]] = {}
        for spec in plan.specs:
            self._states.setdefault(spec.site, []).append(_SpecState(spec))
        # Sticky fragmentation faults: device -> max allocation that succeeds.
        self._fragmented: dict[str, int] = {}

    def attach(self, clock: "SimClock", tracer: Any = None) -> "FaultInjector":
        """Late-bind the session's clock (and tracer) before the run starts."""
        self.clock = clock
        if tracer is not None:
            self.tracer = tracer
        return self

    # -- internals ----------------------------------------------------------

    @property
    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _next_index(self, site: str) -> int:
        index = self._counts.get(site, 0)
        self._counts[site] = index + 1
        return index

    def _fire(self, state: _SpecState, site: str, device: str, op: str,
              index: int, **detail: Any) -> FiredFault:
        state.fires += 1
        if state.spec.magnitude != 1.0:
            detail.setdefault("magnitude", state.spec.magnitude)
        fault = FiredFault(
            ts=self._now, site=site, device=device, op=op, index=index,
            detail=detail,
        )
        self.fired.append(fault)
        self.tracer.fault(site, device, op, index, detail)
        return fault

    def disarm(self) -> None:
        """Stop firing new faults (already-applied damage stays applied)."""
        self.armed = False

    def _matching(self, site: str, index: int, device: str | None = "*",
                  op: str | None = "*") -> list[_SpecState]:
        """Spec states at ``site`` that fire on this eligible operation.

        ``op=None`` / ``device=None`` skip that filter entirely (elastic
        specs carry the target tenant in ``op`` and the target device in
        ``device`` as payload, not as match conditions).
        """
        if not self.armed:
            return []
        out = []
        for state in self._states.get(site, ()):
            spec = state.spec
            if state.exhausted():
                continue
            if device is not None and not _device_matches(spec, device):
                continue
            if op is not None and not _op_matches(spec, op):
                continue
            if not spec.matches_index(index):
                continue
            if spec.probability < 1.0 and self.rng.random() >= spec.probability:
                continue
            out.append(state)
        return out

    # -- allocator site ------------------------------------------------------

    def alloc_fault(self, device: str, size: int, free: int) -> str | None:
        """Consulted by the allocator before each allocation.

        Returns ``"fail"`` (fail this one allocation), ``"fragment"`` (a
        sticky fragmentation fault — or an already-active one — rejects the
        request), or ``None`` (allocate normally). Counts one eligible
        operation per call regardless of outcome, so fault indices line up
        with the allocation sequence.
        """
        index = self._next_index(_plan.ALLOC)

        # New fragmentation faults activate on their allocation index.
        for state in self._matching(_plan.FRAGMENTATION, index, device=device):
            threshold = int(state.spec.magnitude)
            self._fragmented[device] = min(
                threshold, self._fragmented.get(device, threshold)
            )
            self._fire(state, _plan.FRAGMENTATION, device, "*", index,
                       threshold=threshold, size=size, free=free)

        # An active fragmentation fault rejects anything over its threshold:
        # free bytes exist but no span is "contiguous" enough.
        threshold = self._fragmented.get(device)
        if threshold is not None and size > threshold:
            return "fragment"

        for state in self._matching(_plan.ALLOC, index, device=device):
            self._fire(state, _plan.ALLOC, device, "*", index,
                       size=size, free=free)
            return "fail"
        return None

    def on_defragment(self, device: str) -> bool:
        """Called by the heap after compaction; clears sticky fragmentation."""
        return self._fragmented.pop(device, None) is not None

    # -- copy-engine site ----------------------------------------------------

    def copy_plan(self, source: str, dest: str, nbytes: int) -> CopyFault:
        """Consulted by the copy engine per transfer (device filter = dest)."""
        index = self._next_index(_plan.COPY)
        failures = 0
        corrupt = 0
        slowdown = 1.0
        for state in self._matching(_plan.COPY, index, device=dest):
            failures += max(1, int(state.spec.magnitude))
            self._fire(state, _plan.COPY, dest, "*", index,
                       src=source, nbytes=nbytes)
        for state in self._matching(_plan.COPY_CORRUPT, index, device=dest):
            corrupt += max(1, int(state.spec.magnitude))
            self._fire(state, _plan.COPY_CORRUPT, dest, "*", index,
                       src=source, nbytes=nbytes)
        for state in self._matching(_plan.BANDWIDTH, index, device=dest):
            slowdown *= max(1.0, float(state.spec.magnitude))
            self._fire(state, _plan.BANDWIDTH, dest, "*", index,
                       src=source, nbytes=nbytes)
        if failures == 0 and corrupt == 0 and slowdown == 1.0:
            return NO_COPY_FAULT
        return CopyFault(failures=failures, slowdown=slowdown, corrupt=corrupt)

    # -- elastic-event site --------------------------------------------------

    def elastic_events(self, step: int) -> list[tuple[str, str, float]]:
        """Consulted once per workload step boundary.

        Returns the elastic actions scheduled for this boundary as
        ``(kind, subject, magnitude)`` tuples: ``("churn", tenant, _)``
        detaches a tenant (the spec's ``op`` field names it), and
        ``("resize", device, factor)`` rescales a device's capacity by
        ``factor``. Both sites count one eligible operation per call, so
        indices line up with the step sequence.
        """
        actions: list[tuple[str, str, float]] = []
        index = self._next_index(_plan.CHURN)
        for state in self._matching(_plan.CHURN, index, op=None):
            self._fire(state, _plan.CHURN, "*", state.spec.op, index,
                       step=step)
            actions.append(("churn", state.spec.op, state.spec.magnitude))
        index = self._next_index(_plan.RESIZE)
        for state in self._matching(_plan.RESIZE, index, device=None):
            self._fire(state, _plan.RESIZE, state.spec.device, "*", index,
                       step=step, factor=state.spec.magnitude)
            actions.append(
                ("resize", state.spec.device, state.spec.magnitude)
            )
        return actions

    # -- policy-boundary site ------------------------------------------------

    def policy_fault(self, op: str, subject: str = "") -> bool:
        """Consulted by :class:`FaultyPolicy` before delegating ``op``."""
        index = self._next_index(_plan.POLICY)
        for state in self._matching(_plan.POLICY, index, op=op):
            self._fire(state, _plan.POLICY, "*", op, index, subject=subject)
            return True
        return False

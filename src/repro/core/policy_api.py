"""The policy API: Table II hints plus placement callbacks.

Applications (or the trace executor standing in for the Zygote compiler pass)
communicate *semantic intent* through five hints:

* ``will_use`` / ``will_read`` / ``will_write`` — the object is about to be
  accessed (and, if known, how);
* ``archive`` — the object will not be used for some time;
* ``retire`` — the object will never be used again (the only hint whose
  misuse affects correctness).

A policy reacts by calling the data-management API. Two extra callbacks that
the paper's prose implies but Table II leaves implicit are made explicit
here, because some placement decision must happen at these moments:

* :meth:`Policy.place` — a new object needs its first region ("initially
  allocate data only in one specific device", requirement 1 of §III-A; the
  **L** optimisation toggles what this does);
* :meth:`Policy.ensure_resident` — a kernel is about to pin the object, so a
  primary must exist *somewhere* readable.

A kernel crosses this boundary once before it runs, traced or not, and
once after: :meth:`Policy.acquire_operands` takes the kernel's operand lists
and the session's tracer and does its pre-launch work — its hints when the
kernel is hinted (:func:`issue_hints`), then residency and a pin for each
unique operand (:func:`resolve_residency`) — and
:meth:`Policy.on_kernel_finish` follows it. The default is those per-object
loops, which open the operand's ``hint`` or residency scope around each
per-object call — so a policy written against Table II alone never sees
them, and its movement is still attributed to the operand that caused it.
"""

from __future__ import annotations

import abc
import enum
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.core.object import MemObject, Region
from repro.telemetry.trace import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.manager import DataManager

__all__ = [
    "AccessIntent",
    "Policy",
    "DelegatingPolicy",
    "RESIDENCY_LABELS",
    "issue_hints",
    "operand_intents",
    "resolve_residency",
]


class AccessIntent(enum.Enum):
    """How the application says it is about to touch an object."""

    USE = "use"  # unspecified read and/or write
    READ = "read"
    WRITE = "write"


# One (object, intent) pair per unique operand of a kernel.
Intents = Iterable[tuple[MemObject, AccessIntent]]

# The cause-scope label of each residency intent, precomputed so a traced
# sweep never concatenates strings per operand.
RESIDENCY_LABELS = {
    AccessIntent.USE: "resident_use",
    AccessIntent.READ: "resident_read",
    AccessIntent.WRITE: "resident_write",
}


def operand_intents(
    reads: Iterable[MemObject], writes: Iterable[MemObject]
) -> Intents:
    """One ``(object, intent)`` pair per unique operand of a kernel, in
    first-operand order; write intent wins for an operand that is both read
    and written (in-place updates). Objects hash by identity, so the
    dedupe is two C-level dict builds."""
    intents = dict.fromkeys(reads, AccessIntent.READ)
    intents.update(dict.fromkeys(writes, AccessIntent.WRITE))
    return intents.items()


def issue_hints(
    policy: "Policy",
    tracer,
    read_objs: Iterable[MemObject],
    write_objs: Iterable[MemObject],
) -> None:
    """Fire ``will_read``/``will_write`` for a kernel's operands, each under
    its ``tracer.hint`` scope: the tracer emits one ``hint`` event per
    operand, in operand order, and roots whatever the hint moves at it."""
    for obj in read_objs:
        with tracer.hint("will_read", obj):
            policy.will_read(obj)
    for obj in write_objs:
        with tracer.hint("will_write", obj):
            policy.will_write(obj)


def resolve_residency(
    policy: "Policy",
    tracer,
    read_objs: Iterable[MemObject],
    write_objs: Iterable[MemObject],
    pinned: list[MemObject],
) -> None:
    """Ensure residency for each of a kernel's unique operands
    (:func:`operand_intents`) and pin it.

    Each object is pinned as soon as it is resident — so a sibling's
    forced prefetch cannot evict it — and appended to ``pinned``, so a
    failure mid-way tells the caller exactly what to unpin. Movement is
    attributed to the operand's ``RESIDENCY_LABELS`` scope.
    """
    for obj, intent in operand_intents(read_objs, write_objs):
        with tracer.scope(RESIDENCY_LABELS[intent], obj):
            policy.ensure_resident(obj, intent)
        obj.pin()
        pinned.append(obj)


class Policy(abc.ABC):
    """Base class for data-movement policies.

    Subclasses receive hints and direct the bound :class:`DataManager`; they
    must never touch heaps or the copy engine directly (the separation tested
    by ``tests/core/test_separation.py``).
    """

    def __init__(self) -> None:
        self._manager: "DataManager | None" = None

    # -- wiring ---------------------------------------------------------------

    def bind(self, manager: "DataManager") -> None:
        """Attach the mechanism layer. Called once by the session."""
        if self._manager is not None and self._manager is not manager:
            raise RuntimeError("policy is already bound to a different manager")
        self._manager = manager
        stats = getattr(self, "stats", None)
        attach = getattr(stats, "attach", None)
        if attach is not None:
            attach(manager.metrics)
        self.on_bound()

    @property
    def manager(self) -> "DataManager":
        if self._manager is None:
            raise RuntimeError("policy is not bound to a DataManager yet")
        return self._manager

    @property
    def tracer(self):
        """The session's event tracer (a shared no-op when unbound/disabled).

        Policies emit *decision* events (place, prefetch, evict) through
        this; the manager and engine emit the *mechanism* events they cause.
        """
        if self._manager is None:
            return NULL_TRACER
        return self._manager.tracer

    def on_bound(self) -> None:
        """Hook for subclasses to discover devices once bound."""

    # -- placement callbacks -----------------------------------------------------

    @abc.abstractmethod
    def place(self, obj: MemObject) -> Region:
        """Allocate and attach the first (primary) region for a new object."""

    @abc.abstractmethod
    def ensure_resident(self, obj: MemObject, intent: AccessIntent) -> Region:
        """Guarantee the object has a usable primary before a kernel pins it.

        Returns the primary region the kernel will use. The policy may move
        the object (e.g. a write target into fast memory) or leave it alone.
        """

    # -- Table II hints -----------------------------------------------------------

    def will_use(self, obj: MemObject) -> None:
        """The object will be read or written in the near future."""

    def will_read(self, obj: MemObject) -> None:
        """The object will be read in the near future."""
        self.will_use(obj)

    def will_write(self, obj: MemObject) -> None:
        """The object will be written in the near future."""
        self.will_use(obj)

    def archive(self, obj: MemObject) -> None:
        """The object will not be used for some time."""

    def retire(self, obj: MemObject) -> None:
        """The object will never be used again; default frees everything."""
        self.manager.destroy_object(obj)

    # -- one kernel's pre-launch work ---------------------------------------------

    def acquire_operands(
        self,
        reads: Sequence[MemObject],
        writes: Sequence[MemObject],
        hinted: bool,
        pinned: list[MemObject],
        tracer=NULL_TRACER,
    ) -> None:
        """A kernel's pre-launch work, in one call: its hints (when
        ``hinted``), then residency and a pin for each unique operand.

        The default is the per-object loops, :func:`issue_hints` then
        :func:`resolve_residency`. The caller unpins ``pinned`` and, if the
        kernel ran, calls :meth:`on_kernel_finish` with the same lists,
        nothing moving in between. An override must leave the state and
        the records the loops would once that call returns — a ``hint``
        event per operand, in operand order, and every move under its
        operand's scope — and, if it raises, the state the loops leave on
        the same error: it may defer bookkeeping that
        :meth:`on_kernel_finish` redoes, never the movement or the pins.
        """
        if hinted:
            issue_hints(self, tracer, reads, writes)
        resolve_residency(self, tracer, reads, writes, pinned)

    # -- bookkeeping hooks ----------------------------------------------------------

    def on_kernel_finish(self, read: list[MemObject], wrote: list[MemObject]) -> None:
        """Called after a kernel unpins its operands (for usage tracking)."""

    def on_iteration_end(self) -> None:
        """Called between training iterations (e.g. to reset heuristics)."""

    # -- recovery hook (docs/robustness.md) ----------------------------------------

    def handle_pressure(self, device: str, nbytes: int) -> bool:
        """Try to free ``nbytes`` of contiguous space on ``device``.

        The executor's OOM escalation ladder calls this as its eviction rung
        after deferred-GC collection fails. Return ``True`` only if space was
        actually freed (the ladder retries the allocation); the default
        declines so stateless policies fall through to defragmentation and
        cross-tier fallback.
        """
        return False


class DelegatingPolicy(Policy):
    """A policy wrapper that forwards every operation to an inner policy.

    Base class for the robustness chain — the
    :class:`~repro.policies.watchdog.PolicyWatchdog` and the fault-injecting
    :class:`~repro.faults.policy.FaultyPolicy` both interpose on a real
    policy without it knowing. Subclasses override individual operations and
    call ``super()`` (or ``self.inner`` directly) to delegate.

    Binding is forwarded, not duplicated: the wrapper records the manager
    and binds the *inner* policy, whose ``bind`` attaches its own stats to
    the metrics registry exactly once.

    :meth:`~Policy.acquire_operands` is deliberately *not* forwarded: a
    wrapper inherits the per-object loops, so each operand still passes
    through its ``will_read``/``will_write``/``ensure_resident`` — a strike
    or an injected fault lands on the operand that caused it. The loop
    opens each operand's scope; the inner per-object method runs its sweep
    with the no-op tracer, so no event is emitted twice.
    """

    def __init__(self, inner: Policy) -> None:
        super().__init__()
        self.inner = inner

    def bind(self, manager: "DataManager") -> None:
        if self._manager is not None and self._manager is not manager:
            raise RuntimeError("policy is already bound to a different manager")
        self._manager = manager
        self.inner.bind(manager)
        self.on_bound()

    @property
    def stats(self):
        return getattr(self.inner, "stats", None)

    def place(self, obj: MemObject) -> Region:
        return self.inner.place(obj)

    def ensure_resident(self, obj: MemObject, intent: AccessIntent) -> Region:
        return self.inner.ensure_resident(obj, intent)

    def will_use(self, obj: MemObject) -> None:
        self.inner.will_use(obj)

    def will_read(self, obj: MemObject) -> None:
        self.inner.will_read(obj)

    def will_write(self, obj: MemObject) -> None:
        self.inner.will_write(obj)

    def archive(self, obj: MemObject) -> None:
        self.inner.archive(obj)

    def retire(self, obj: MemObject) -> None:
        self.inner.retire(obj)

    def on_kernel_finish(self, read: list[MemObject], wrote: list[MemObject]) -> None:
        self.inner.on_kernel_finish(read, wrote)

    def on_iteration_end(self) -> None:
        self.inner.on_iteration_end()

    def handle_pressure(self, device: str, nbytes: int) -> bool:
        return self.inner.handle_pressure(device, nbytes)

    def check_invariant(self) -> None:
        check = getattr(self.inner, "check_invariant", None)
        if check is not None:
            check()

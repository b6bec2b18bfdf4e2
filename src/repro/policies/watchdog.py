"""The policy watchdog: survive a misbehaving policy instead of crashing.

Policies are *user code* in the CachedArrays model — the framework promises
that a policy bug degrades performance, not correctness. The
:class:`PolicyWatchdog` enforces that promise at runtime. It wraps any
policy and:

* catches :class:`~repro.errors.PolicyError` escaping each policy operation
  (and post-checks the placement contract: ``place``/``ensure_resident``
  must return the object's live primary region);
* records a **strike** per failure (a ``policy_strike`` trace event and a
  ``watchdog.strikes`` metric), then patches the run forward — falling back
  to the static fallback policy for the failed operation;
* after ``MAX_STRIKES`` failures, **quarantines** the wrapped policy: a
  ``quarantine`` event fires, an invariant sweep runs, and every subsequent
  operation is routed to the fallback (an
  :class:`~repro.policies.interleave.InterleavePolicy` by default — no
  hints, no movement, no cleverness; slow but safe) for the rest of the run.

Only :class:`PolicyError` is absorbed. :class:`OutOfMemoryError` is a
pressure signal the escalation ladder owns, and state errors
(``RegionStateError`` etc.) indicate corrupted bookkeeping that must abort —
see the taxonomy in :mod:`repro.errors`.
"""

from __future__ import annotations

from repro.core.object import MemObject, Region
from repro.core.policy_api import AccessIntent, DelegatingPolicy, Policy
from repro.errors import PolicyError

__all__ = ["PolicyWatchdog"]

MAX_STRIKES = 3  # failures before the wrapped policy is quarantined


class PolicyWatchdog(DelegatingPolicy):
    """Strike-and-quarantine wrapper around an untrusted policy."""

    def __init__(self, inner: Policy, *, fallback: Policy | None = None) -> None:
        super().__init__(inner)
        if fallback is None:
            from repro.policies.interleave import InterleavePolicy

            fallback = InterleavePolicy()
        self.fallback = fallback
        self.strikes = 0
        self.quarantined = False
        self.failures: list[str] = []

    def bind(self, manager) -> None:
        super().bind(manager)
        self.fallback.bind(manager)

    # -- strike bookkeeping --------------------------------------------------

    def _strike(self, op: str, error: PolicyError) -> None:
        self.strikes += 1
        self.failures.append(f"{op}: {error}")
        tracer = self.tracer
        # Attribute the strike to the tenant whose operation tripped it, so
        # multi-tenant escalations separate in `repro explain`/flight dumps.
        tenant = getattr(self.manager, "active_tenant", "")
        tracer.policy_strike(op, self.strikes, str(error), tenant)
        self.manager.metrics.counter("watchdog.strikes").inc()
        if self.strikes >= MAX_STRIKES and not self.quarantined:
            self.quarantined = True
            tracer.quarantine(
                type(self.inner).__name__,
                type(self.fallback).__name__,
                self.strikes,
            )
            self.manager.metrics.counter("watchdog.quarantines").inc()
            # The quarantined policy may have died mid-operation; make sure
            # it did not leave the mechanism layer inconsistent before the
            # fallback takes over.
            self.manager.check()

    def _check_placement(self, obj: MemObject, region: Region, op: str) -> None:
        """Contract: the returned region is the object's live primary."""
        if region is None or region.freed or obj.primary is not region:
            raise PolicyError(
                f"{op} returned {region!r}, which is not the live primary "
                f"of {obj!r}"
            )

    # -- guarded operations --------------------------------------------------

    def place(self, obj: MemObject) -> Region:
        if self.quarantined:
            return self.fallback.place(obj)
        try:
            region = self.inner.place(obj)
            self._check_placement(obj, region, "place")
            return region
        except PolicyError as error:
            self._strike("place", error)
            if obj.primary is not None and not obj.primary.freed:
                return obj.primary  # the inner policy got far enough
            return self.fallback.place(obj)

    def ensure_resident(self, obj: MemObject, intent: AccessIntent) -> Region:
        if self.quarantined:
            return self.fallback.ensure_resident(obj, intent)
        try:
            region = self.inner.ensure_resident(obj, intent)
            self._check_placement(obj, region, "ensure_resident")
            return region
        except PolicyError as error:
            self._strike("ensure_resident", error)
            return self.fallback.ensure_resident(obj, intent)

    def _guard_hint(self, op: str, obj: MemObject) -> None:
        if self.quarantined:
            return  # the static fallback ignores hints by design
        try:
            getattr(self.inner, op)(obj)
        except PolicyError as error:
            self._strike(op, error)  # a dropped hint costs time, not data

    def will_use(self, obj: MemObject) -> None:
        self._guard_hint("will_use", obj)

    def will_read(self, obj: MemObject) -> None:
        self._guard_hint("will_read", obj)

    def will_write(self, obj: MemObject) -> None:
        self._guard_hint("will_write", obj)

    def archive(self, obj: MemObject) -> None:
        self._guard_hint("archive", obj)

    def retire(self, obj: MemObject) -> None:
        if self.quarantined:
            self.fallback.retire(obj)
            return
        try:
            self.inner.retire(obj)
        except PolicyError as error:
            self._strike("retire", error)
            if not obj.retired:
                # Retire affects correctness (the object must actually die);
                # finish the job with the fallback.
                self.fallback.retire(obj)

    def on_kernel_finish(self, read: list[MemObject], wrote: list[MemObject]) -> None:
        if self.quarantined:
            self.fallback.on_kernel_finish(read, wrote)
            return
        try:
            self.inner.on_kernel_finish(read, wrote)
        except PolicyError as error:
            self._strike("on_kernel_finish", error)

    def on_iteration_end(self) -> None:
        if self.quarantined:
            self.fallback.on_iteration_end()
            return
        try:
            self.inner.on_iteration_end()
        except PolicyError as error:
            self._strike("on_iteration_end", error)

    def handle_pressure(self, device: str, nbytes: int) -> bool:
        if self.quarantined:
            return self.fallback.handle_pressure(device, nbytes)
        try:
            return self.inner.handle_pressure(device, nbytes)
        except PolicyError as error:
            self._strike("handle_pressure", error)
            return False

    def check_invariant(self) -> None:
        if self.quarantined:
            return  # the inner policy's invariants no longer govern the run
        super().check_invariant()

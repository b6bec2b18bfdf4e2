"""The OOM escalation ladder (docs/robustness.md).

When an allocation fails *after* the policy has already done its own
eviction, the runtime does not give up — it climbs a ladder of progressively
heavier recovery steps, retrying the allocation after each rung that acted:

1. **collect** — run deferred garbage collection (objects the application
   has logically retired but the collector has not yet freed);
2. **evict**  — ask the policy to free a contiguous span via
   :meth:`~repro.core.policy_api.Policy.handle_pressure` (Listing 2's
   ``evictfrom`` under the hood);
3. **defrag** — compact the device's heap. This also cures *injected*
   fragmentation faults (the heap notifies the fault injector), which is why
   the rung retries even when no block physically moved;
4. **fallback** — give up on the requested device and allocate on another
   tier (slower, but the run survives).

Every rung emits a ``recovery_step`` trace event carrying the cause chain
(step, device, bytes, whether it acted); a successful retry emits
``recovery``. If every applicable rung fails, the ladder raises
:class:`~repro.errors.RecoveryExhaustedError` — a typed, diagnosable abort
listing the steps that were attempted, chained to the original OOM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.errors import OutOfMemoryError, RecoveryExhaustedError
from repro.telemetry.trace import NULL_TRACER

__all__ = [
    "LadderHooks",
    "recover_allocation",
    "session_hooks",
    "COLLECT",
    "EVICT",
    "DEFRAG",
    "FALLBACK",
    "LADDER_STEPS",
]

T = TypeVar("T")

COLLECT = "collect"
EVICT = "evict"
DEFRAG = "defrag"
FALLBACK = "fallback"
LADDER_STEPS = (COLLECT, EVICT, DEFRAG, FALLBACK)


@dataclass
class LadderHooks:
    """The recovery actions available to one caller of the ladder.

    Each hook is optional — a ``None`` rung is skipped (and not counted as
    attempted). Hooks return whether they *acted*; the ladder only retries
    the allocation after a rung that did (except ``defrag``, which always
    retries — compaction can cure injected fragmentation without moving a
    single block). ``fallback`` is different: it performs the allocation
    itself on another device and returns the (truthy) result.
    """

    collect: Callable[[], bool] | None = None
    evict: Callable[[str, int], bool] | None = None
    defrag: Callable[[str], bool] | None = None
    fallback: Callable[[], Any] | None = None


def recover_allocation(
    attempt: Callable[[], T],
    error: OutOfMemoryError,
    hooks: LadderHooks,
    *,
    tracer: Any = NULL_TRACER,
    tenant: str = "",
) -> T | Any:
    """Climb the ladder until ``attempt()`` succeeds or rungs run out.

    ``attempt`` re-runs the failed allocation; ``error`` is the
    :class:`OutOfMemoryError` that triggered recovery (its ``device`` and
    ``requested`` parameterise the rungs; it is re-read from each failed
    retry so the ladder always targets the *current* failure). ``tenant``
    attributes every ladder event to the tenant whose allocation is being
    recovered, so multi-tenant escalations are separable in ``repro
    explain`` and flight dumps. Raises :class:`RecoveryExhaustedError`
    chained to the original error when nothing worked.
    """
    first_error = error
    steps_taken: list[str] = []

    def _emit_step(step: str, acted: bool) -> None:
        tracer.recovery_step(
            step, error.device, error.requested, error.free, acted, tenant
        )

    def _succeed(step: str, result: T) -> T:
        tracer.recovery(
            step, error.device, error.requested, ",".join(steps_taken), tenant
        )
        return result

    for step in (COLLECT, EVICT, DEFRAG):
        hook = getattr(hooks, step)
        if hook is None:
            continue
        steps_taken.append(step)
        with tracer.scope(f"recover:{step}", error.device):
            if step == COLLECT:
                acted = bool(hook())
            elif step == EVICT:
                acted = bool(hook(error.device, error.requested))
            else:
                acted = bool(hook(error.device))
            _emit_step(step, acted)
            if not acted and step != DEFRAG:
                continue
            try:
                result = attempt()
            except OutOfMemoryError as retry_error:
                error = retry_error
                continue
        return _succeed(step, result)

    if hooks.fallback is not None:
        steps_taken.append(FALLBACK)
        with tracer.scope(f"recover:{FALLBACK}", error.device):
            result = hooks.fallback()
            _emit_step(FALLBACK, bool(result))
        if result:
            return _succeed(FALLBACK, result)

    # Announce the exhaustion as a final ladder step before raising: the
    # runtime monitor treats it as an escalation and dumps the flight
    # recorder, so the typed abort ships with its last-N-events context.
    _emit_step("exhausted", False)
    raise RecoveryExhaustedError(
        error.device, error.requested, error.free, steps_taken
    ) from first_error


def session_hooks(session: Any) -> LadderHooks:
    """Ladder hooks for direct :class:`~repro.core.session.Session` use.

    Sessions have no garbage collector (that is the executor's), so the
    ladder starts at the eviction rung: policy ``handle_pressure``, then a
    per-device defragmentation pass. Used by the chaos harness around array
    creation; executor runs build their own hooks with collect + fallback.
    """

    def defrag(device: str) -> bool:
        session.manager.defragment(device)
        return True

    return LadderHooks(
        collect=None,
        evict=session.policy.handle_pressure,
        defrag=defrag,
        fallback=None,
    )

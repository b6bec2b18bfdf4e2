"""The OOM escalation ladder: rung ordering, telemetry, executor wiring."""

import pytest

from repro.core.session import Session, SessionConfig
from repro.errors import OutOfMemoryError, RecoveryExhaustedError
from repro.policies.noop import SingleDevicePolicy
from repro.policies.optimizing import OptimizingPolicy
from repro.runtime.executor import CachedArraysAdapter, Executor
from repro.runtime.gc import GcConfig
from repro.runtime.kernel import ExecutionParams
from repro.runtime.recovery import (
    LadderHooks,
    recover_allocation,
    session_hooks,
)
from repro.sim.clock import SimClock
from repro.telemetry import trace as tracing
from repro.telemetry.trace import Tracer
from repro.units import KiB, MiB
from repro.workloads.annotate import annotate
from repro.workloads.synthetic import streaming_trace

OOM = OutOfMemoryError("DRAM", 1024, 128)


class Attempt:
    """An allocation that fails ``failures`` times, then returns a token."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise OutOfMemoryError("DRAM", 1024, 128)
        return "allocated"


def _exhausted_steps(tracer):
    """Ladders that ran out: each ends in one ``exhausted`` step event."""
    return sum(
        1
        for e in tracer.events
        if e.kind == tracing.RECOVERY_STEP and e.args["step"] == "exhausted"
    )


def test_ladder_climbs_in_order_and_stops_at_success():
    calls = []
    attempt = Attempt(failures=1)  # retry fails after collect, works after evict
    hooks = LadderHooks(
        collect=lambda: calls.append("collect") or True,
        evict=lambda device, nbytes: calls.append("evict") or True,
        defrag=lambda device: calls.append("defrag") or True,
        fallback=lambda: calls.append("fallback") or True,
    )
    result = recover_allocation(attempt, OOM, hooks)
    assert result == "allocated"
    assert calls == ["collect", "evict"]  # defrag and fallback never reached
    assert attempt.calls == 2


def test_rungs_that_decline_are_not_retried():
    attempt = Attempt(failures=0)
    hooks = LadderHooks(
        collect=lambda: False,       # declines: nothing deferred
        evict=lambda d, n: True,     # acts: retry happens here
    )
    result = recover_allocation(attempt, OOM, hooks)
    assert result == "allocated"
    assert attempt.calls == 1


def test_defrag_retries_even_when_hook_reports_no_movement():
    """Compaction can cure injected fragmentation without moving blocks."""
    attempt = Attempt(failures=0)
    hooks = LadderHooks(defrag=lambda device: False)
    assert recover_allocation(attempt, OOM, hooks) == "allocated"
    assert attempt.calls == 1


def test_fallback_result_is_returned_verbatim():
    hooks = LadderHooks(fallback=lambda: {"device": "NVRAM"})
    attempt = Attempt(failures=99)
    result = recover_allocation(attempt, OOM, hooks)
    assert result == {"device": "NVRAM"}
    assert attempt.calls == 0  # fallback allocates itself; no retry


def test_exhausted_ladder_raises_typed_error_with_cause_chain():
    tracer = Tracer(SimClock())
    hooks = LadderHooks(
        collect=lambda: True,
        evict=lambda d, n: True,
        defrag=lambda d: True,
        fallback=lambda: False,
    )
    attempt = Attempt(failures=99)
    with pytest.raises(RecoveryExhaustedError) as excinfo:
        recover_allocation(attempt, OOM, hooks, tracer=tracer)
    error = excinfo.value
    assert isinstance(error, OutOfMemoryError)  # back-compat contract
    assert tuple(error.steps) == ("collect", "evict", "defrag", "fallback")
    assert error.__cause__ is OOM
    assert _exhausted_steps(tracer) == 1
    assert not any(e.kind == tracing.RECOVERY for e in tracer.events)


def test_none_hooks_are_skipped_and_not_recorded():
    hooks = LadderHooks()  # no rungs at all
    with pytest.raises(RecoveryExhaustedError) as excinfo:
        recover_allocation(Attempt(failures=99), OOM, hooks)
    assert tuple(excinfo.value.steps) == ()


def test_ladder_emits_step_and_recovery_events():
    clock = SimClock()
    tracer = Tracer(clock)
    hooks = LadderHooks(
        collect=lambda: False,
        evict=lambda d, n: True,
    )
    recover_allocation(Attempt(failures=0), OOM, hooks, tracer=tracer)
    steps = [e for e in tracer.events if e.kind == tracing.RECOVERY_STEP]
    assert [(e.args["step"], e.args["acted"]) for e in steps] == [
        ("collect", False),
        ("evict", True),
    ]
    (recovery,) = [e for e in tracer.events if e.kind == tracing.RECOVERY]
    assert recovery.args["step"] == "evict"
    assert recovery.args["steps"] == "collect,evict"


def test_session_hooks_wire_policy_and_defrag():
    session = Session(
        SessionConfig(dram=1 * MiB, nvram=16 * MiB),
        policy=OptimizingPolicy(local_alloc=True),
    )
    hooks = session_hooks(session)
    assert hooks.collect is None
    assert hooks.fallback is None
    assert hooks.evict("DRAM", 1024) in (True, False)  # delegates to policy
    assert hooks.defrag("DRAM") is True  # defragments and always retries


# -- executor integration (satellite: the emergency-OOM path) ------------------


def _executor(policy, dram=256 * KiB, nvram=64 * MiB, tracing_on=True):
    session = Session(
        SessionConfig(dram=dram, nvram=nvram, tracing=tracing_on),
        policy=policy,
    )
    return session, Executor(
        CachedArraysAdapter(session, ExecutionParams()),
        gc_config=GcConfig(trigger_bytes=8 * MiB),
    )


def test_executor_recovers_via_cross_tier_fallback():
    """A DRAM-only policy asks for tensors larger than all of DRAM; only the
    fallback rung (cross-tier placement on NVRAM) lets the run complete."""
    session, executor = _executor(SingleDevicePolicy("DRAM"))
    trace = annotate(streaming_trace(stages=6, tensor_bytes=512 * KiB),
                     memopt=False)
    result = executor.run(trace, iterations=1)
    assert len(result.iterations) == 1
    recoveries = [
        e for e in session.tracer.events if e.kind == tracing.RECOVERY
    ]
    assert recoveries and all(
        e.args["step"] == "fallback" for e in recoveries
    )
    session.manager.check()


def test_executor_exhausted_ladder_is_a_typed_abort():
    """A tensor larger than every tier exhausts all four rungs."""
    session, executor = _executor(
        OptimizingPolicy(local_alloc=True), dram=4 * MiB, nvram=8 * MiB
    )
    trace = annotate(streaming_trace(stages=2, tensor_bytes=16 * MiB),
                     memopt=False)
    with pytest.raises(RecoveryExhaustedError) as excinfo:
        executor.run(trace, iterations=1)
    assert "fallback" in excinfo.value.steps
    assert _exhausted_steps(session.tracer) == 1
    assert isinstance(excinfo.value.__cause__, OutOfMemoryError)
    session.manager.check()  # the failed run left bookkeeping consistent

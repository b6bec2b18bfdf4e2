"""Tracing through the executor: determinism, zero cost, paranoia checks."""

from repro.experiments.common import ExperimentConfig, run_trace_mode
from repro.runtime.kernel import ExecutionParams
from repro.telemetry.export import jsonl_lines
from repro.telemetry.metrics import attribute_copies
from repro.telemetry.trace import (
    COPY_END,
    COPY_START,
    HINT,
    INVARIANT_CHECK,
    KERNEL_END,
    KERNEL_START,
    NullTracer,
)
from repro.units import KiB, MiB
from repro.workloads.synthetic import filo_stack_trace


def tight_config(**overrides) -> ExperimentConfig:
    """DRAM far smaller than the workload, so movement must happen."""
    defaults = dict(
        scale=1,
        iterations=1,
        dram_bytes=1 * MiB,
        nvram_bytes=64 * MiB,
        tracing=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def small_trace():
    return filo_stack_trace(depth=8, activation_bytes=256 * KiB)


def run_traced(**overrides):
    return run_trace_mode(small_trace(), "CA:LM", tight_config(**overrides))


def test_traced_run_collects_layered_events():
    events = run_traced().run.trace
    kinds = {e.kind for e in events}
    # Boundary events from the executor, decisions from the policy,
    # mechanism events from the manager/engine.
    assert {KERNEL_START, KERNEL_END, HINT, COPY_START, COPY_END} <= kinds
    assert {"alloc", "free", "place", "evict", "setprimary", "gc"} <= kinds
    starts = sum(1 for e in events if e.kind == KERNEL_START)
    ends = sum(1 for e in events if e.kind == KERNEL_END)
    assert starts == ends > 0


def test_copies_carry_root_causes():
    events = run_traced().run.trace
    attribution = attribute_copies(events)
    assert attribution.total_copies > 0
    # The acceptance bar: at least 95% of copied bytes trace to a cause.
    assert attribution.attributed_fraction >= 0.95


def test_same_run_twice_is_byte_identical():
    first = list(jsonl_lines(run_traced().run.trace))
    second = list(jsonl_lines(run_traced().run.trace))
    assert first == second
    assert len(first) > 50


def test_disabled_tracing_keeps_results_bit_identical():
    baseline = run_trace_mode(small_trace(), "CA:LM", tight_config(tracing=False))
    traced = run_traced()
    assert baseline.run.trace == []
    assert traced.run.trace != []
    base_it, traced_it = baseline.iteration, traced.iteration
    assert base_it.seconds == traced_it.seconds
    assert base_it.movement_seconds == traced_it.movement_seconds
    assert base_it.traffic == traced_it.traffic
    assert base_it.policy_stats == traced_it.policy_stats
    assert base_it.peak_occupancy == traced_it.peak_occupancy


def test_disabled_tracer_never_emits():
    """A NullTracer subclass that explodes on emit survives a full run."""
    from repro.core.session import Session, SessionConfig
    from repro.runtime.executor import CachedArraysAdapter, Executor
    from repro.workloads.annotate import annotate

    class Exploding(NullTracer):
        def emit(self, kind, **args):  # pragma: no cover - must not run
            raise AssertionError(f"emit({kind}) while disabled")

        def emit_at(self, ts, kind, **args):  # pragma: no cover
            raise AssertionError(f"emit_at({kind}) while disabled")

    session = Session(
        SessionConfig(dram=1 * MiB, nvram=64 * MiB), tracer=Exploding()
    )
    adapter = CachedArraysAdapter(session, ExecutionParams())
    executor = Executor(adapter)
    result = executor.run(annotate(small_trace(), memopt=True))
    assert result.trace == []
    assert session.engine.tracer is session.tracer
    assert session.manager.tracer is session.tracer


def test_paranoia_runs_invariant_checks():
    params = ExecutionParams(paranoia=5)
    result = run_traced(params=params)
    checks = [e for e in result.run.trace if e.kind == INVARIANT_CHECK]
    kernels = sum(1 for e in result.run.trace if e.kind == KERNEL_END)
    assert len(checks) == kernels // 5
    assert checks[0].args["kernels"] == 5


def test_paranoia_zero_skips_checks():
    result = run_traced(params=ExecutionParams(paranoia=0))
    assert not any(e.kind == INVARIANT_CHECK for e in result.run.trace)


def test_twolm_adapter_traces_allocs():
    result = run_trace_mode(small_trace(), "2LM:M", tight_config())
    kinds = {e.kind for e in result.run.trace}
    assert {KERNEL_START, KERNEL_END, "alloc", "free"} <= kinds
    assert not any(e.kind == COPY_START for e in result.run.trace)


def test_eviction_cascade_metric_derivable():
    from repro.telemetry.metrics import derive_metrics

    events = run_traced().run.trace
    data = derive_metrics(events)
    cascade = data["trace.eviction_cascade_depth"]
    assert cascade["count"] > 0
    assert cascade["min"] >= 1

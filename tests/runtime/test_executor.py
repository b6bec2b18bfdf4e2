"""Executor: trace walking on both systems, GC integration, telemetry."""

import math

import pytest

from repro.core.session import Session, SessionConfig
from repro.errors import TraceError
from repro.memory.device import MemoryDevice
from repro.policies.optimizing import OptimizingPolicy
from repro.runtime.executor import CachedArraysAdapter, Executor, TwoLMAdapter
from repro.runtime.gc import GcConfig
from repro.runtime.kernel import ExecutionParams
from repro.twolm.system import TwoLMSystem
from repro.units import KiB, MiB
from repro.workloads.annotate import annotate
from repro.workloads.synthetic import filo_stack_trace, streaming_trace
from repro.workloads.trace import (
    Alloc,
    Free,
    IterEnd,
    Kernel,
    KernelTrace,
    TensorSpec,
)

PARAMS = ExecutionParams()


def ca_executor(dram=4 * MiB, nvram=64 * MiB, **policy_kwargs):
    session = Session(
        SessionConfig(dram=dram, nvram=nvram),
        policy=OptimizingPolicy(local_alloc=True, **policy_kwargs),
    )
    return Executor(
        CachedArraysAdapter(session, PARAMS),
        gc_config=GcConfig(trigger_bytes=8 * MiB),
    )


def twolm_executor(dram=4 * MiB, nvram=64 * MiB):
    system = TwoLMSystem(
        MemoryDevice.dram(dram), MemoryDevice.nvram(nvram), line_size=4096
    )
    return Executor(
        TwoLMAdapter(system, PARAMS), gc_config=GcConfig(trigger_bytes=8 * MiB)
    )


@pytest.fixture(params=["ca", "2lm"])
def executor(request):
    return ca_executor() if request.param == "ca" else twolm_executor()


def test_runs_annotated_trace(executor):
    trace = annotate(streaming_trace(stages=8, tensor_bytes=256 * KiB), memopt=True)
    result = executor.run(trace, iterations=2)
    assert len(result.iterations) == 2
    assert all(it.seconds > 0 for it in result.iterations)


def test_iterations_are_consistent_after_warmup(executor):
    trace = annotate(filo_stack_trace(depth=8, activation_bytes=256 * KiB), memopt=True)
    result = executor.run(trace, iterations=3)
    second, third = result.iterations[1], result.iterations[2]
    assert second.seconds == pytest.approx(third.seconds, rel=0.05)


def test_persistent_tensors_allocated_once(executor):
    trace = annotate(filo_stack_trace(depth=4), memopt=True)
    result = executor.run(trace, iterations=2)
    # Weights stay alive between iterations; only one allocation each.
    assert executor.adapter.exists("w0")


def test_gc_mode_defers_frees():
    executor = ca_executor()
    trace = annotate(
        streaming_trace(stages=16, tensor_bytes=256 * KiB), memopt=False
    )
    result = executor.run(trace)
    iteration = result.iterations[0]
    assert iteration.gc_collections >= 1  # at least the end-of-iteration one
    assert executor.gc.reclaimed_objects == 17  # all stream tensors


def test_memopt_mode_retires_eagerly():
    executor = ca_executor()
    trace = annotate(
        streaming_trace(stages=16, tensor_bytes=256 * KiB), memopt=True
    )
    executor.run(trace)
    assert executor.gc.reclaimed_objects == 0
    assert executor.adapter.live_count() == 0


def test_memopt_lowers_peak_occupancy():
    base = ca_executor()
    base.run(annotate(streaming_trace(stages=16, tensor_bytes=256 * KiB), memopt=False))
    eager = ca_executor()
    eager.run(annotate(streaming_trace(stages=16, tensor_bytes=256 * KiB), memopt=True))
    peak_base = max(base._timelines["total"].values())
    peak_eager = max(eager._timelines["total"].values())
    assert peak_eager < peak_base


def test_emergency_collection_on_oom():
    """Dead-but-deferred data must be collected when allocation fails."""
    executor = ca_executor(dram=512 * KiB, nvram=4 * MiB)
    executor.gc.config = GcConfig(trigger_bytes=1 << 60)  # never auto-trigger
    trace = annotate(
        streaming_trace(stages=24, tensor_bytes=512 * KiB), memopt=False
    )
    result = executor.run(trace)  # footprint would exceed NVRAM without GC
    assert result.iterations[0].gc_collections >= 1


def test_trace_without_iterend_rejected():
    executor = ca_executor()
    trace = KernelTrace()
    trace.add_tensor(TensorSpec("t", 64))
    trace.events = [Alloc("t"), Free("t")]
    with pytest.raises(TraceError):
        executor.run(annotate(trace, memopt=True))


def test_zero_iterations_rejected(executor):
    trace = annotate(streaming_trace(stages=2), memopt=True)
    with pytest.raises(TraceError):
        executor.run(trace, iterations=0)


def test_traffic_deltas_per_iteration():
    executor = ca_executor(dram=512 * KiB)
    trace = annotate(filo_stack_trace(depth=8, activation_bytes=256 * KiB), memopt=True)
    result = executor.run(trace, iterations=2)
    for iteration in result.iterations:
        assert set(iteration.traffic) == {"DRAM", "NVRAM"}
        # spilling workload: NVRAM must have seen traffic
        assert iteration.traffic["NVRAM"].total_bytes > 0


def test_cache_stats_only_on_2lm():
    trace = annotate(streaming_trace(stages=4), memopt=True)
    ca_result = ca_executor().run(trace)
    assert ca_result.iterations[0].cache is None
    lm_result = twolm_executor().run(trace)
    cache = lm_result.iterations[0].cache
    assert cache is not None and cache.accesses > 0


def test_policy_stats_only_on_ca():
    trace = annotate(streaming_trace(stages=4), memopt=True)
    assert ca_executor().run(trace).iterations[0].policy_stats
    assert not twolm_executor().run(trace).iterations[0].policy_stats


@pytest.mark.parametrize(
    "flops, sensitivity", [(1.0e9, -0.1), (1.0e9, 1.5), (-1.0e9, 0.5), (0.0, 1.0)]
)
def test_one_kernel_gets_the_same_verdict_on_both_adapters(flops, sensitivity):
    """A read sensitivity outside [0, 1] is rejected, and non-positive work
    costs only the launch, on either memory system."""
    kernel = Kernel("k", ("a",), ("b",), flops, read_sensitivity=sensitivity)
    verdicts = []
    for executor in (ca_executor(), twolm_executor()):
        adapter = executor.adapter
        for name in "ab":
            adapter.alloc(TensorSpec(name, 64 * KiB))
        try:
            verdicts.append(adapter.kernel(kernel, None).compute)
        except ValueError as exc:
            verdicts.append(str(exc))
    assert verdicts[0] == verdicts[1]
    if not 0.0 <= sensitivity <= 1.0:
        assert "read_sensitivity" in verdicts[0]
    else:
        assert verdicts[0] == PARAMS.launch_overhead


@pytest.mark.parametrize(
    "field, value",
    [
        ("read_factor", -1.0),
        ("read_factor", math.nan),
        ("read_factor", math.inf),
        ("write_factor", math.inf),
        ("read_sensitivity", 1.5),
    ],
)
def test_a_bad_kernel_is_refused_before_either_adapter_runs(field, value):
    """A negative or non-finite traffic factor, or a read sensitivity outside
    [0, 1], is a TraceError from the trace itself: neither memory system sees
    the kernel, so none moves data (an infinite factor would never finish)."""
    trace = KernelTrace(name="one-kernel")
    for name in "ab":
        trace.add_tensor(TensorSpec(name, 64 * KiB))
    kernel = Kernel("k", ("a",), ("b",), 1.0e9, **{field: value})
    trace.events = [Alloc("a"), Alloc("b"), kernel, Free("a"), Free("b"), IterEnd()]
    verdicts = []
    for executor in (ca_executor(), twolm_executor()):
        with pytest.raises(TraceError, match="traffic factors") as exc:
            executor.run(annotate(trace, memopt=True))
        verdicts.append(str(exc.value))
        assert not any(t.total_bytes for t in executor.adapter.traffic().values())
    assert verdicts[0] == verdicts[1]


def test_a_raw_free_is_refused_on_both_adapters(executor):
    """The run loop runs annotated traces: a raw trace's ``Free`` is refused,
    naming the event, before the loop touches it, instead of being skipped
    (which left every freed tensor live)."""
    trace = filo_stack_trace(depth=4)
    position = next(i for i, e in enumerate(trace.events) if isinstance(e, Free))
    with pytest.raises(TraceError) as exc:
        executor.run(trace)
    assert f"event {position} is {trace.events[position]!r}" in str(exc.value)


def test_a_bad_read_sensitivity_changes_nothing():
    """``read_sensitivity`` outside [0, 1] is refused before the kernel
    hints, resolves residency or charges traffic: the clock, the counters,
    every primary and every pin are as they were."""
    # Born in NVRAM (no L) behind a DRAM the operands fit in, so a kernel
    # that ran its hints and residency would fetch them.
    session = Session(
        SessionConfig(dram=4 * MiB, nvram=64 * MiB),
        policy=OptimizingPolicy(local_alloc=False),
    )
    adapter = CachedArraysAdapter(session, PARAMS)
    trace = KernelTrace()
    for name in "ab":
        adapter.alloc(trace.add_tensor(TensorSpec(name, 256 * KiB)))
    clock = session.clock

    def state():
        return (
            clock.now,
            {c: clock.busy(c) for c in ("movement", "movement_wait")},
            {d: (s.read_bytes, s.write_bytes) for d, s in adapter.traffic().items()},
            {
                name: (obj.primary.device_name, obj.primary.offset, obj.pin_count)
                for name, obj in adapter.objects.items()
            },
        )

    before = state()
    for sensitivity in (1.5, -0.25):
        kernel = Kernel("k", ("a",), ("b",), 1.0e9, read_sensitivity=sensitivity)
        with pytest.raises(ValueError, match=r"read_sensitivity must be in \[0,1\]"):
            adapter.kernel(kernel, trace)
        assert state() == before
    # The same kernel with a valid sensitivity does move and charge.
    adapter.kernel(Kernel("k", ("a",), ("b",), 1.0e9), trace)
    assert state() != before


@pytest.mark.parametrize(
    "field, value",
    [
        ("read_factor", -1.0),
        ("write_factor", -0.5),
        ("read_factor", math.nan),
        ("read_factor", math.inf),
        ("write_factor", math.inf),
    ],
)
def test_a_bad_traffic_factor_changes_nothing_on_either_adapter(field, value):
    """An unvalidated kernel with a negative or non-finite traffic factor is
    refused by ``KernelTrace.validate``'s rule at the top of both adapters'
    ``kernel``: on CachedArrays before its hints, residency moves or traffic
    charges (the clock, the counters, every primary and every pin are as
    they were); on 2LM before the factor split, which an infinite factor
    would never leave, so the clock, the counters and the cache stats are as
    they were."""
    kernel = Kernel("k", ("a",), ("b",), 1.0e9, **{field: value})
    # Born in NVRAM (no L) behind a DRAM the operands fit in, so a kernel
    # that ran its hints and residency would fetch them.
    session = Session(
        SessionConfig(dram=4 * MiB, nvram=64 * MiB),
        policy=OptimizingPolicy(local_alloc=False),
    )
    ca = CachedArraysAdapter(session, PARAMS)
    twolm = twolm_executor().adapter
    for adapter in (ca, twolm):
        for name in "ab":
            adapter.alloc(TensorSpec(name, 256 * KiB))

    def state(adapter):
        clock = adapter.clock
        return (
            clock.now,
            {c: clock.busy(c) for c in ("movement", "movement_wait")},
            {d: (s.read_bytes, s.write_bytes) for d, s in adapter.traffic().items()},
            {
                name: (obj.primary.device_name, obj.primary.offset, obj.pin_count)
                for name, obj in getattr(adapter, "objects", {}).items()
            },
            adapter.cache_stats(),
        )

    for adapter in (ca, twolm):
        before = state(adapter)
        with pytest.raises(ValueError, match="traffic factors .* must be finite and >= 0"):
            adapter.kernel(kernel, None)
        assert state(adapter) == before
        # The same kernel with valid factors does charge traffic.
        adapter.kernel(Kernel("k", ("a",), ("b",), 1.0e9), None)
        assert state(adapter) != before


def test_a_second_run_leaves_the_first_results_tracks_as_they_were():
    """A run's occupancy timelines are its own: running the executor again
    neither grows the first result's tracks nor shares them with the second
    result, which still holds every sample of both runs."""
    executor = ca_executor()
    trace = annotate(filo_stack_trace(depth=4), memopt=True)
    first = executor.run(trace)
    recorded = {name: t.to_dict() for name, t in first.occupancy_timeline.items()}
    second = executor.run(trace)
    assert {n: t.to_dict() for n, t in first.occupancy_timeline.items()} == recorded
    for name, track in second.occupancy_timeline.items():
        assert track is not first.occupancy_timeline[name]
        assert len(track) == 2 * len(first.occupancy_timeline[name])
        assert track.to_dict()["samples"][: len(recorded[name]["samples"])] == (
            recorded[name]["samples"]
        )


def test_a_paused_then_resumed_run_returns_every_sample():
    trace = annotate(filo_stack_trace(depth=6), memopt=True)
    whole = ca_executor().run(trace, iterations=2)
    executor = ca_executor()
    executor.pause_after = 5
    assert executor.run(trace, iterations=2) is None
    executor.pause_after = None
    resumed = executor.run(trace, iterations=2)
    assert {n: t.to_dict() for n, t in resumed.occupancy_timeline.items()} == {
        n: t.to_dict() for n, t in whole.occupancy_timeline.items()
    }


def test_occupancy_timeline_recorded():
    executor = ca_executor()
    trace = annotate(filo_stack_trace(depth=6), memopt=True)
    result = executor.run(trace)
    timeline = result.occupancy_timeline["total"]
    assert len(timeline) > 10
    assert timeline.peak() > 0


def test_async_projection_bounds():
    executor = ca_executor(dram=512 * KiB)
    trace = annotate(filo_stack_trace(depth=8, activation_bytes=256 * KiB), memopt=True)
    iteration = executor.run(trace).iterations[0]
    assert iteration.compute_seconds <= iteration.projected_async_seconds
    assert iteration.projected_async_seconds <= iteration.seconds


def test_run_result_helpers():
    executor = ca_executor()
    trace = annotate(streaming_trace(stages=4), memopt=True)
    result = executor.run(trace, iterations=3)
    assert result.steady_state() is result.iterations[-1]


def test_iteration_variance_low_in_steady_state():
    """The paper's per-iteration consistency check, as an API."""
    executor = ca_executor()
    trace = annotate(filo_stack_trace(depth=8, activation_bytes=256 * KiB), memopt=True)
    result = executor.run(trace, iterations=4)
    assert result.iteration_variance() < 0.02


def test_iteration_variance_degenerate_cases():
    executor = ca_executor()
    trace = annotate(streaming_trace(stages=2), memopt=True)
    result = executor.run(trace, iterations=1)
    assert result.iteration_variance() == 0.0


class CountingSpy:
    """Stands in for a policy and records every method called on it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        attribute = getattr(self.inner, name)
        if not callable(attribute):
            return attribute

        def counted(*args, **kwargs):
            self.calls.append(name)
            return attribute(*args, **kwargs)

        return counted


@pytest.mark.parametrize("operands", [1, 4, 12])
@pytest.mark.parametrize("hinted", [True, False])
def test_an_untraced_kernel_crosses_the_policy_boundary_once_per_sweep(
    operands, hinted
):
    """However many operands a kernel has, traced or not, the kernel makes
    one policy call before it runs — hints (when the kernel is hinted) and
    residency — and one after it, finish. A traced kernel opens a scope
    only around an operand that moves, yet still records one ``hint`` event
    per operand."""

    def kernel_calls(tracing):
        # Born in NVRAM (no L): a fetch is what opens a scope.
        spy = CountingSpy(OptimizingPolicy(local_alloc=False))
        session = Session(
            SessionConfig(dram=4 * MiB, nvram=64 * MiB, tracing=tracing), policy=spy
        )
        adapter = CachedArraysAdapter(session, PARAMS)
        names = [f"t{i}" for i in range(operands)]
        trace = KernelTrace()
        for name in names:
            adapter.alloc(trace.add_tensor(TensorSpec(name, 64 * KiB)))
        del spy.calls[:]
        opened = []
        if tracing:  # the untraced listener is the shared no-op: leave it be
            tracer = session.tracer
            for method in ("hint", "scope"):
                original = getattr(tracer, method)
                setattr(
                    tracer,
                    method,
                    lambda kind, subject="", *owed, original=original: (
                        opened.append(kind) or original(kind, subject, *owed)
                    ),
                )
            tracer.clear()
        kernel = Kernel("k", tuple(names), (names[0],), 1e6, hinted=hinted)
        adapter.kernel(kernel, trace)
        hints = [e.args["hint"] for e in session.tracer.events if e.kind == "hint"]
        session.close()
        return spy.calls, opened, hints

    untraced, _, _ = kernel_calls(tracing=False)
    assert untraced == ["acquire_operands", "on_kernel_finish"]

    calls, opened, hints = kernel_calls(tracing=True)
    assert calls == untraced
    # names[0] is read and written: its write hint (or, unhinted, its
    # residency with write intent winning) moves it; every other operand
    # moves at residency, under its own scope.
    first = ["will_write"] if hinted else ["resident_write"]
    assert opened == first + ["resident_read"] * (operands - 1)
    assert hints == (["will_read"] * operands + ["will_write"] if hinted else [])

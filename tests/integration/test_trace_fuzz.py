"""Fuzzing: random well-formed traces must never break either system.

Hypothesis generates arbitrary (valid) kernel traces — random DAG-free
tensor lifetimes, kernel fan-in/out, sizes, and hints — and executes them
against both the CachedArrays session (several policies) and the 2LM
baseline, asserting the cross-layer invariants after every run and that the
two systems agree on what was allocated.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.session import Session, SessionConfig
from repro.memory.device import MemoryDevice
from repro.policies import AdaptivePolicy, MultiTierPolicy, OptimizingPolicy
from repro.runtime.executor import CachedArraysAdapter, Executor, TwoLMAdapter
from repro.runtime.gc import GcConfig
from repro.runtime.kernel import ExecutionParams
from repro.twolm.system import TwoLMSystem
from repro.units import KiB, MiB
from repro.workloads.annotate import annotate
from repro.workloads.trace import (
    Alloc,
    Free,
    IterEnd,
    Kernel,
    KernelTrace,
    TensorSpec,
)


def build_trace(seed: int, n_tensors: int, steps: int) -> KernelTrace:
    """The valid single-iteration trace three integers determine — the unit
    a failing fuzz case is pinned by (``@example(build_trace(...), ...)``)."""
    rng = np.random.default_rng(seed)
    trace = KernelTrace(name="fuzz")
    live: list[str] = []
    created = 0

    def new_tensor() -> str:
        nonlocal created
        name = f"t{created}"
        created += 1
        size = int(rng.integers(1, 64)) * KiB
        persistent = bool(rng.random() < 0.15)
        trace.add_tensor(
            TensorSpec(name, size, persistent=persistent)
        )
        trace.append(Alloc(name))
        live.append(name)
        return name

    new_tensor()
    for step in range(steps):
        roll = rng.random()
        if roll < 0.35 and created < n_tensors:
            new_tensor()
        elif roll < 0.85 and live:
            k_reads = min(len(live), int(rng.integers(1, 4)))
            reads = tuple(rng.choice(live, size=k_reads, replace=False))
            writes = tuple(
                rng.choice(live, size=min(len(live), 1), replace=False)
            )
            trace.append(
                Kernel(
                    name=f"k{step}",
                    reads=reads,
                    writes=writes,
                    flops=float(rng.integers(1, 10)) * 1e6,
                    phase=str(rng.choice(["forward", "backward", "update"])),
                    read_factor=float(rng.choice([1.0, 2.0])),
                    read_sensitivity=float(rng.choice([0.0, 0.5, 1.0])),
                )
            )
        elif live:
            victim = live[int(rng.integers(0, len(live)))]
            if not trace.tensors[victim].persistent:
                live.remove(victim)
                trace.append(Free(victim))
    for name in list(live):
        if not trace.tensors[name].persistent:
            trace.append(Free(name))
    trace.append(IterEnd())
    trace.validate()
    return trace


@st.composite
def random_traces(draw) -> KernelTrace:
    """A random valid single-iteration trace."""
    seed = draw(st.integers(0, 2**31))
    n_tensors = draw(st.integers(min_value=2, max_value=24))
    steps = draw(st.integers(min_value=1, max_value=40))
    return build_trace(seed, n_tensors, steps)


POLICY_FACTORIES = [
    lambda: OptimizingPolicy(local_alloc=True),
    lambda: OptimizingPolicy(local_alloc=False, prefetch=True),
    lambda: AdaptivePolicy(local_alloc=True, prefetch=True),
]


@given(random_traces(), st.integers(0, len(POLICY_FACTORIES) - 1), st.booleans())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_ca_system_survives_any_trace(trace, policy_index, memopt):
    annotated = annotate(trace, memopt=memopt)
    policy = POLICY_FACTORIES[policy_index]()
    session = Session(
        SessionConfig(dram=256 * KiB, nvram=32 * MiB), policy=policy
    )
    executor = Executor(
        CachedArraysAdapter(session, ExecutionParams()),
        gc_config=GcConfig(trigger_bytes=MiB),
        sample_timeline=False,
    )
    result = executor.run(annotated, iterations=2)
    session.manager.check_invariants()
    if hasattr(policy, "check_invariant"):
        policy.check_invariant()
    # Nothing but persistent tensors (weights & their grads) survives.
    persistent = sum(1 for s in trace.tensors.values() if s.persistent)
    assert executor.adapter.live_count() == persistent
    assert all(it.seconds >= 0 for it in result.iterations)
    session.close()


@given(random_traces(), st.booleans())
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_2lm_system_survives_any_trace(trace, memopt):
    annotated = annotate(trace, memopt=memopt)
    system = TwoLMSystem(
        MemoryDevice.dram(256 * KiB),
        MemoryDevice.nvram(32 * MiB),
        line_size=64,
    )
    executor = Executor(
        TwoLMAdapter(system, ExecutionParams()),
        gc_config=GcConfig(trigger_bytes=MiB),
        sample_timeline=False,
    )
    executor.run(annotated, iterations=2)
    system.allocator.check_invariants()
    persistent = sum(1 for s in trace.tensors.values() if s.persistent)
    assert executor.adapter.live_count() == persistent
    stats = system.cache_stats()
    assert stats.accesses == stats.hits + stats.clean_misses + stats.dirty_misses


@given(random_traces(), st.booleans())
# Shrunk from --hypothesis-seed=59: a CXL->DRAM promotion leaves the CXL copy
# linked as a clean secondary, and a later CXL span eviction covers it.
@example(build_trace(524650, 15, 28), False)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_multitier_survives_any_trace(trace, async_movement):
    annotated = annotate(trace, memopt=True)
    devices = [
        MemoryDevice.dram(128 * KiB),
        MemoryDevice.cxl(512 * KiB, name="CXL"),
        MemoryDevice.nvram(32 * MiB),
    ]
    session = Session(
        SessionConfig(devices=devices, async_movement=async_movement),
        policy=MultiTierPolicy(["DRAM", "CXL", "NVRAM"]),
    )
    executor = Executor(
        CachedArraysAdapter(session, ExecutionParams()), sample_timeline=False
    )
    executor.run(annotated, iterations=2)
    session.manager.check_invariants()
    session.policy.check_invariant()
    session.close()

"""Section VI extension experiments, unified into one report.

Four panels, each quantifying one of the paper's outlook directions against
the baseline it extends:

1. **Platforms** — the large-ResNet trace on DRAM+NVRAM (paper platform),
   DRAM+CXL, and three-tier DRAM+CXL+NVRAM; the two-tier policy is reused
   *unmodified* on the CXL platform.
2. **Async movement** — sync vs per-destination-channel async wall time vs
   the Figure 7 idealised projection, small networks.
3. **Policy flexibility** — LRU vs the adaptive (frequency/regret) policy on
   stable and shifting DLRM-style hot sets.
4. **OS baselines** — NUMA interleave / first-touch vs hint-driven CA: LM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.policy_api import Policy
from repro.core.session import Session, SessionConfig
from repro.experiments.common import (
    ExperimentConfig,
    model_trace,
    run_mode,
    tenant_executor,
)
from repro.experiments.report import header, table
from repro.memory.device import MemoryDevice
from repro.policies import (
    AdaptivePolicy,
    FirstTouchPolicy,
    InterleavePolicy,
    MultiTierPolicy,
    OptimizingPolicy,
)
from repro.runtime.executor import IterationResult
from repro.units import GB, MiB
from repro.workloads.annotate import annotate
from repro.workloads.synthetic import random_reuse_trace, shifting_reuse_trace
from repro.workloads.trace import KernelTrace

__all__ = ["ExtensionsResult", "run", "render"]


@dataclass
class ExtensionsResult:
    config: ExperimentConfig
    platforms: dict[str, IterationResult] = field(default_factory=dict)
    async_movement: dict[str, dict[str, float]] = field(default_factory=dict)
    dlrm: dict[str, dict[str, IterationResult]] = field(default_factory=dict)
    numa: dict[str, IterationResult] = field(default_factory=dict)


def _execute(
    devices: list[MemoryDevice],
    policy: Policy,
    trace: KernelTrace,
    config: ExperimentConfig,
    *,
    async_movement: bool = False,
) -> IterationResult:
    session = Session(
        SessionConfig(devices=devices, async_movement=async_movement),
        policy=policy,
    )
    executor = tenant_executor(session, config, None, sample_timeline=False)
    iteration = executor.run(trace, iterations=config.iterations).steady_state()
    session.close()
    return iteration


def run(config: ExperimentConfig | None = None) -> ExtensionsResult:
    config = config or ExperimentConfig()
    result = ExtensionsResult(config=config)

    # --- panel 1: platforms -------------------------------------------------
    trace = annotate(model_trace("resnet200-large", config), memopt=True)
    cxl = lambda: MemoryDevice.cxl(512 * GB // config.scale, name="CXL")  # noqa: E731
    result.platforms["DRAM+NVRAM (paper)"] = _execute(
        [config.build_dram(), config.build_nvram()],
        OptimizingPolicy(local_alloc=True),
        trace,
        config,
    )
    result.platforms["DRAM+CXL (same policy)"] = _execute(
        [config.build_dram(), cxl()],
        OptimizingPolicy(fast="DRAM", slow="CXL", local_alloc=True),
        trace,
        config,
    )
    result.platforms["DRAM+CXL+NVRAM (3-tier)"] = _execute(
        [config.build_dram(), cxl(), config.build_nvram()],
        MultiTierPolicy(["DRAM", "CXL", "NVRAM"]),
        trace,
        config,
    )

    # --- panel 2: async movement ----------------------------------------------
    for model in ("densenet264-small", "vgg116-small"):
        budget = replace(config, dram_bytes=45 * GB)
        sync = run_mode(model, "CA:LM", budget).iteration
        asynchronous = run_mode(
            model, "CA:LM", replace(budget, async_movement=True)
        ).iteration
        result.async_movement[model] = {
            "sync": sync.seconds * config.scale,
            "async": asynchronous.seconds * config.scale,
            "projection": sync.projected_async_seconds * config.scale,
        }

    # --- panel 3: DLRM policy flexibility ----------------------------------------
    workloads = {
        "stable hot set": random_reuse_trace(
            working_set=64, kernels=600, tensor_bytes=MiB, seed=1
        ),
        "shifting hot set": shifting_reuse_trace(
            working_set=64, kernels_per_phase=200, phases=3, tensor_bytes=MiB, seed=1
        ),
    }
    for label, raw in workloads.items():
        annotated = annotate(raw, memopt=True)
        result.dlrm[label] = {}
        for policy_name, factory in (
            ("LRU", lambda: OptimizingPolicy(local_alloc=True, prefetch=True)),
            ("adaptive", lambda: AdaptivePolicy(local_alloc=True, prefetch=True)),
        ):
            result.dlrm[label][policy_name] = _execute(
                [
                    MemoryDevice.dram(16 * MiB),
                    MemoryDevice.nvram(256 * MiB),
                ],
                factory(),
                annotated,
                replace(config, scale=1),
            )

    # --- panel 4: OS NUMA baselines ---------------------------------------------
    for label, factory in (
        ("CA: LM (hints)", lambda: OptimizingPolicy(local_alloc=True)),
        ("NUMA interleave", lambda: InterleavePolicy()),
        ("NUMA first-touch", lambda: FirstTouchPolicy(["DRAM", "NVRAM"])),
    ):
        result.numa[label] = _execute(
            [config.build_dram(), config.build_nvram()],
            factory(),
            trace,
            config,
        )
    return result


def render(result: ExtensionsResult) -> str:
    scale = result.config.scale
    sections = [
        header(
            "Section VI extensions — platforms, async movement, policies",
            "everything below uses the unmodified hint/manager machinery",
        )
    ]

    sections.append("\n[1] ResNet 200 across memory platforms:")
    rows = [
        (label, f"{it.seconds * scale:.1f} s")
        for label, it in result.platforms.items()
    ]
    sections.append(table(("platform", "iteration"), rows))

    sections.append("\n[2] asynchronous data movement (45 GB DRAM budget):")
    rows = []
    for model, numbers in result.async_movement.items():
        realised = (
            (numbers["sync"] - numbers["async"])
            / max(1e-9, numbers["sync"] - numbers["projection"])
        )
        rows.append(
            (
                model,
                f"{numbers['sync']:.1f} s",
                f"{numbers['async']:.1f} s",
                f"{numbers['projection']:.1f} s",
                f"{100 * realised:.0f}%",
            )
        )
    sections.append(
        table(("model", "sync", "async (real)", "projection", "realised"), rows)
    )

    sections.append("\n[3] DLRM-style policy flexibility (NVRAM reads, MiB):")
    rows = []
    for workload, by_policy in result.dlrm.items():
        for policy_name, iteration in by_policy.items():
            rows.append(
                (
                    workload,
                    policy_name,
                    f"{iteration.traffic['NVRAM'].read_bytes / MiB:.0f}",
                    iteration.policy_stats.get("evictions", 0),
                )
            )
    sections.append(table(("workload", "policy", "NVRAM reads", "evictions"), rows))

    sections.append("\n[4] OS NUMA baselines vs hints (ResNet 200):")
    rows = [
        (label, f"{it.seconds * scale:.1f} s")
        for label, it in result.numa.items()
    ]
    sections.append(table(("policy", "iteration"), rows))
    return "\n".join(sections)

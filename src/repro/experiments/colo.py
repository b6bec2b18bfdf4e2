"""Co-located tenants: concurrent workloads sharing one memory system.

The paper evaluates CachedArrays one workload at a time; this experiment
asks the natural datacenter question: what happens when two or three
tenants *co-run* on the same DRAM + NVRAM pool? Each tenant gets its own
:class:`~repro.core.session.Session` (own policy, own object namespace)
over one :class:`~repro.core.session.SharedRuntime`, and the
:class:`~repro.runtime.scheduler.StreamScheduler` interleaves their kernel
streams in virtual-time order — so one tenant's allocations raise the heap
pressure every *other* tenant's policy has to handle.

Protocol:

1. DRAM is sized to ``DRAM_FRACTION`` (0.6) of the tenants'
   combined footprint — each workload fits comfortably alone, but the
   co-run cannot keep everyone fast-tier resident.
2. Each tenant first runs **solo** on that same device configuration; its
   finish time is the slowdown baseline.
3. All tenants then run **co-located** on one shared runtime with event
   tracing on, so every stall is attributed to the (tenant, object) pair
   that caused it (:func:`repro.telemetry.diff.stall_attribution`).

Reported per tenant: solo and co-located finish times (virtual seconds,
rescaled to paper magnitudes) and the slowdown ratio. Reported overall:
makespan, fairness (max/min slowdown — 1.0 is perfectly fair), aggregate
per-device traffic, and the attributed-stall fraction. Everything is
deterministic: same tenants + config → bit-identical results, pinned by
:meth:`ColoResult.digest`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.core.session import SharedRuntime
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentConfig,
    float_hex_digest,
    tenant_executor,
)
from repro.policies.modes import ModeConfig, mode as resolve_mode
from repro.runtime.executor import RunResult
from repro.runtime.scheduler import StreamScheduler
from repro.telemetry.counters import TrafficSnapshot
from repro.telemetry.diff import stall_attribution
from repro.units import GB
from repro.workloads.annotate import annotate
from repro.workloads.dlrm import dlrm_trace
from repro.workloads.synthetic import filo_stack_trace, streaming_trace
from repro.workloads.trace import KernelTrace

__all__ = [
    "DRAM_FRACTION",
    "ColoResult",
    "TenantOutcome",
    "TenantSpec",
    "WORKLOADS",
    "DEFAULT_TENANTS",
    "run_colo",
    "render",
]


@dataclass(frozen=True)
class TenantSpec:
    """A named co-location workload (builder returns paper-magnitude trace)."""

    name: str
    build: Callable[[], KernelTrace]
    description: str


def _cnn_trace() -> KernelTrace:
    # A small CNN training step: FILO activation stack + persistent weights
    # (the Section III-E shape), ~112 GB peak at paper magnitudes.
    return filo_stack_trace(
        depth=8,
        activation_bytes=12 * GB,
        weight_bytes=2 * GB,
        flops_per_layer=2e12,
    )


def _dlrm_trace() -> KernelTrace:
    # DLRM inference over Zipf-skewed embedding tables, ~130 GB of
    # embeddings; the hot chunks want the fast tier.
    return dlrm_trace(
        tables=4,
        chunks_per_table=16,
        chunk_bytes=2 * GB,
        lookups_per_table=4,
        batches=2,
        seed=7,
    )


def _stream_trace() -> KernelTrace:
    # A streaming pipeline: each stage's output dies right after the next
    # stage consumes it — little reuse, steady allocation churn.
    return streaming_trace(stages=24, tensor_bytes=8 * GB, flops_per_stage=4e12)


WORKLOADS: dict[str, TenantSpec] = {
    spec.name: spec
    for spec in (
        TenantSpec("cnn", _cnn_trace, "CNN training (FILO activation stack)"),
        TenantSpec("dlrm", _dlrm_trace, "DLRM inference (Zipf embeddings)"),
        TenantSpec("stream", _stream_trace, "streaming pipeline (low reuse)"),
    )
}

DEFAULT_TENANTS = ("cnn", "dlrm")

# Shared DRAM as a fraction of the tenants' combined peak footprint: each
# workload fits comfortably alone, the co-run cannot keep everyone resident.
DRAM_FRACTION = 0.6


@dataclass
class TenantOutcome:
    """One tenant's solo-vs-co-located comparison."""

    name: str
    description: str
    footprint_bytes: int  # scaled
    solo_seconds: float  # virtual seconds, scaled
    colo_seconds: float
    run: RunResult

    @property
    def slowdown(self) -> float:
        return self.colo_seconds / self.solo_seconds if self.solo_seconds else 1.0


@dataclass
class ColoResult:
    """The full co-location report."""

    tenants: list[TenantOutcome]
    makespan_seconds: float  # scaled virtual seconds
    traffic: dict[str, TrafficSnapshot]  # aggregate, co-located run
    attribution: dict  # stall_attribution() of the co-located trace
    mode: ModeConfig
    config: ExperimentConfig
    dram_bytes: int  # chosen capacity, paper magnitudes

    @property
    def fairness(self) -> float:
        """Max/min slowdown across tenants; 1.0 is perfectly fair."""
        slowdowns = [t.slowdown for t in self.tenants]
        low = min(slowdowns)
        return max(slowdowns) / low if low > 0 else float("inf")

    def digest(self) -> str:
        """A determinism fingerprint over every reported number."""
        parts: list[str | float | int] = []
        for tenant in self.tenants:
            parts += (
                tenant.name, float(tenant.solo_seconds), float(tenant.colo_seconds)
            )
        parts.append(float(self.makespan_seconds))
        for device in sorted(self.traffic):
            snap = self.traffic[device]
            parts += (device, ":", snap.read_bytes, ":", snap.write_bytes)
        return float_hex_digest(parts)

    def to_json(self) -> dict:
        scale = self.config.scale
        return {
            "mode": self.mode.name,
            "dram_gb": round(self.dram_bytes / GB, 2),
            "makespan_seconds": round(self.makespan_seconds * scale, 3),
            "fairness": round(self.fairness, 4),
            "digest": self.digest(),
            "attributed_stall_fraction": round(
                self.attribution.get("attributed_fraction", 1.0), 4
            ),
            "tenants": {
                t.name: {
                    "solo_seconds": round(t.solo_seconds * scale, 3),
                    "colo_seconds": round(t.colo_seconds * scale, 3),
                    "slowdown": round(t.slowdown, 4),
                }
                for t in self.tenants
            },
            "traffic_gb": {
                device: {
                    "read": round(snap.read_bytes * scale / 1e9, 1),
                    "write": round(snap.write_bytes * scale / 1e9, 1),
                }
                for device, snap in self.traffic.items()
            },
        }


def _tenant_traces(
    names: tuple[str, ...] | list[str],
    config: ExperimentConfig,
    mode_cfg: ModeConfig,
) -> list[tuple[TenantSpec, KernelTrace]]:
    if len(names) < 2:
        raise ConfigurationError(
            f"co-location needs at least two tenants, got {list(names)}"
        )
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate tenant names: {list(names)}")
    pairs = []
    for name in names:
        try:
            spec = WORKLOADS[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
            ) from None
        trace = annotate(
            spec.build().scaled(config.scale), memopt=mode_cfg.memopt
        )
        pairs.append((spec, trace))
    return pairs


def _run_group(
    pairs: list[tuple[TenantSpec, KernelTrace]],
    config: ExperimentConfig,
    mode_cfg: ModeConfig,
) -> tuple[dict[str, float], dict[str, RunResult], SharedRuntime]:
    """Run the given tenants together on one fresh shared runtime.

    Returns per-tenant finish times (virtual seconds), per-tenant
    :class:`RunResult`, and the runtime (for traffic/trace inspection).
    With one pair this is exactly a solo run: the scheduler's single-stream
    fast path replays the sequential executor loop.
    """
    # Co-location is only interesting with the DMA channels modelled:
    # tenants contend for them, and stalls need completion times to
    # attribute. Solo baselines use the same setting for a fair ratio.
    config = replace(config, async_movement=True)
    runtime = SharedRuntime(config.session_config())
    scheduler = StreamScheduler(runtime.clock, tracer=runtime.tracer)
    streams = {}
    for spec, trace in pairs:
        policy = mode_cfg.make_policy("DRAM", "NVRAM")
        session = runtime.session(policy, tenant=spec.name)
        executor = tenant_executor(
            session,
            config,
            trace.peak_live_bytes(),
            sample_timeline=config.sample_timeline,
            stream_name=spec.name,
        )
        streams[spec.name] = scheduler.spawn(
            spec.name,
            executor.stream(trace, config.iterations),
            activate=lambda name=spec.name: runtime.activate(name),
        )
    scheduler.run()
    finish = {name: stream.local_time for name, stream in streams.items()}
    results = {name: stream.result for name, stream in streams.items()}
    return finish, results, runtime


def run_colo(
    tenant_names: tuple[str, ...] | list[str] = DEFAULT_TENANTS,
    config: ExperimentConfig | None = None,
    *,
    mode_name: str | ModeConfig = "CA:LM",
) -> ColoResult:
    """Run the co-location experiment: solo baselines, then the co-run.

    ``DRAM_FRACTION`` sizes DRAM relative to the tenants' combined peak
    footprint; the NVRAM capacity comes from ``config``. Tracing is forced
    on for the co-located run (stall attribution needs it) and off for the
    solo baselines (they only contribute a finish time).
    """
    config = config or ExperimentConfig()
    mode_cfg = resolve_mode(mode_name)
    if mode_cfg.system != "ca":
        raise ConfigurationError(
            f"co-location runs on the CA runtime; mode {mode_cfg.name!r} does not"
        )
    pairs = _tenant_traces(tuple(tenant_names), config, mode_cfg)
    combined = sum(trace.peak_live_bytes() for _, trace in pairs)
    # Choose the shared DRAM so the co-run cannot keep everyone resident;
    # solos use the *same* capacity so the slowdown ratio isolates the
    # effect of co-location, not of a different machine.
    dram_bytes = max(config.line_size, int(combined * DRAM_FRACTION)) * config.scale
    sized = config.with_dram(dram_bytes)

    solo_seconds: dict[str, float] = {}
    solo_cfg = replace(sized, tracing=False)
    for pair in pairs:
        finish, _, runtime = _run_group([pair], solo_cfg, mode_cfg)
        runtime.close()
        solo_seconds[pair[0].name] = finish[pair[0].name]

    colo_cfg = replace(sized, tracing=True)
    finish, results, runtime = _run_group(pairs, colo_cfg, mode_cfg)
    traffic = runtime.traffic()
    attribution = stall_attribution(list(runtime.tracer.events))
    makespan = max(finish.values())
    runtime.close()

    tenants = [
        TenantOutcome(
            name=spec.name,
            description=spec.description,
            footprint_bytes=trace.peak_live_bytes(),
            solo_seconds=solo_seconds[spec.name],
            colo_seconds=finish[spec.name],
            run=results[spec.name],
        )
        for spec, trace in pairs
    ]
    return ColoResult(
        tenants=tenants,
        makespan_seconds=makespan,
        traffic=traffic,
        attribution=attribution,
        mode=mode_cfg,
        config=config,
        dram_bytes=dram_bytes,
    )


def render(result: ColoResult) -> str:
    """The text report ``python -m repro colo`` prints."""
    scale = result.config.scale
    lines = [
        f"Co-located tenants ({result.mode.name}, "
        f"DRAM {result.dram_bytes / GB:.0f} GB shared, scale {scale})",
        "",
        f"{'tenant':<8} {'workload':<38} {'solo (s)':>10} "
        f"{'co-run (s)':>11} {'slowdown':>9}",
    ]
    for tenant in result.tenants:
        lines.append(
            f"{tenant.name:<8} {tenant.description:<38} "
            f"{tenant.solo_seconds * scale:>10.2f} "
            f"{tenant.colo_seconds * scale:>11.2f} "
            f"{tenant.slowdown:>8.2f}x"
        )
    lines.append("")
    lines.append(
        f"makespan {result.makespan_seconds * scale:.2f} s, "
        f"fairness (max/min slowdown) {result.fairness:.2f}"
    )
    for device in sorted(result.traffic):
        snap = result.traffic[device]
        lines.append(
            f"{device} traffic: read {snap.read_bytes * scale / 1e9:.1f} GB, "
            f"wrote {snap.write_bytes * scale / 1e9:.1f} GB"
        )
    fraction = result.attribution.get("attributed_fraction", 1.0)
    total = result.attribution.get("total_stall_seconds", 0.0)
    lines.append(
        f"stall attribution: {fraction:.1%} of {total * scale:.3f} s of "
        f"movement-wait attributed to (tenant, object) pairs"
    )
    for pair in result.attribution.get("pairs", [])[:6]:
        lines.append(
            f"  {pair['stream'] or '<unattributed>'}: {pair['object']} "
            f"{pair['seconds'] * scale:.3f} s"
        )
    lines.append(f"digest {result.digest()}")
    return "\n".join(lines)

"""Shared experiment machinery: build a mode's system, run a model on it.

The evaluation platform of Section IV: one socket with 180 GB of usable DRAM
and 1300 GB of NVRAM (the 2LM runs use the same limits). ``scale`` divides
every tensor and both device capacities by an integer, letting the
paper-shaped experiments run quickly: placement decisions, hit ratios, and
traffic *ratios* are scale-invariant because everything shrinks together
(the per-transfer overhead term is the one exception, which is why published
numbers in EXPERIMENTS.md use moderate scales).

How a run is stood up is written here once (docs/architecture.md, "How a
run is built"): :func:`model_trace` resolves a ``--model`` key,
:meth:`ExperimentConfig.session_config` describes the CA platform, and
:func:`tenant_executor` stacks the adapter and executor on a session.
:func:`run_matrix` is the one models x modes loop; Figures 2-6 are views of
the mapping it returns.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from repro.core.session import Session, SessionConfig
from repro.errors import ConfigurationError
from repro.memory.device import MemoryDevice
from repro.nn.models import MODEL_REGISTRY
from repro.policies.modes import ModeConfig, mode as resolve_mode
from repro.runtime.executor import (
    CachedArraysAdapter,
    Executor,
    IterationResult,
    RunResult,
    TwoLMAdapter,
)
from repro.runtime.gc import GcConfig
from repro.runtime.kernel import ExecutionParams
from repro.telemetry.monitor import MonitorConfig, RuntimeMonitor, pick_tracer
from repro.twolm.system import TwoLMSystem
from repro.units import GB
from repro.workloads.annotate import annotate
from repro.workloads.synthetic import filo_stack_trace
from repro.workloads.trace import KernelTrace

__all__ = [
    "COPY_OVERHEAD",
    "ExperimentConfig",
    "Matrix",
    "ModeResult",
    "PreparedRun",
    "available_models",
    "float_hex_digest",
    "model_trace",
    "prepare_trace_mode",
    "run_matrix",
    "run_mode",
    "run_modes",
    "tenant_executor",
]


# The copy engine's ramp per transfer (unscaled seconds; EXPERIMENTS.md).
COPY_OVERHEAD = 5e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """Platform + run parameters shared by all experiments."""

    dram_bytes: int = 180 * GB
    nvram_bytes: int = 1300 * GB
    scale: int = 16
    iterations: int = 2
    line_size: int = 4096
    gc_trigger_fraction: float = 0.85  # of the workload footprint
    async_movement: bool = False  # overlap copies with compute (Section VI)
    params: ExecutionParams = field(default_factory=ExecutionParams)
    sample_timeline: bool = True
    # Collect structured trace events (RunResult.trace); off by default so
    # experiment runs pay nothing for observability they don't use.
    tracing: bool = False
    # Attach the always-on runtime monitor (ModeResult.monitor): windowed
    # rollups, latency sketches, alerts, flight recorder. Bounded memory;
    # composes with ``tracing`` (monitor alone retains no events).
    monitor: bool = False
    # Optional monitor tuning (window size, alert rules, flight-dump dir).
    monitor_config: "MonitorConfig | None" = None

    def __post_init__(self) -> None:
        # Both arrive from the command line; a non-positive value would
        # otherwise surface as a ZeroDivisionError or TraceError mid-run.
        for name in ("scale", "iterations"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")

    def scaled_dram(self) -> int:
        return max(self.line_size, self.dram_bytes // self.scale)

    def scaled_nvram(self) -> int:
        return max(self.line_size, self.nvram_bytes // self.scale)

    def with_dram(self, dram_bytes: int) -> "ExperimentConfig":
        return replace(self, dram_bytes=dram_bytes)

    def scaled_params(self) -> ExecutionParams:
        """Execution params with fixed per-kernel costs scaled down with
        the workload (reported times are multiplied back up by ``scale``)."""
        return replace(
            self.params,
            launch_overhead=self.params.launch_overhead / self.scale,
        )

    def build_dram(self) -> MemoryDevice:
        """DRAM device with fixed latencies scaled down with the workload,
        so per-transfer overheads keep the same *relative* weight at every
        scale (reported times are multiplied back up by ``scale``)."""
        from repro.memory.device import MemoryKind
        from repro.sim.bandwidth import dram_bandwidth_model

        model = dram_bandwidth_model(setup_latency=1e-6 / self.scale)
        return MemoryDevice("DRAM", MemoryKind.DRAM, self.scaled_dram(), model)

    def build_nvram(self) -> MemoryDevice:
        from repro.memory.device import MemoryKind
        from repro.sim.bandwidth import optane_bandwidth_model

        model = optane_bandwidth_model(setup_latency=3e-6 / self.scale)
        return MemoryDevice("NVRAM", MemoryKind.NVRAM, self.scaled_nvram(), model)

    def session_config(self) -> SessionConfig:
        """The CA platform this config describes: the scaled devices (NVRAM
        alone when the DRAM budget is zero) and the per-transfer copy ramp
        shrunk with them. Every experiment's runtime is built from this."""
        devices = [self.build_dram()] if self.dram_bytes > 0 else []
        devices.append(self.build_nvram())
        return SessionConfig(
            devices=devices,
            copy_overhead=COPY_OVERHEAD / self.scale,
            async_movement=self.async_movement,
            tracing=self.tracing,
            monitor=self.monitor,
            monitor_config=self.monitor_config,
        )


@dataclass
class ModeResult:
    """One (workload, mode) cell of the evaluation matrix."""

    model: str
    mode: ModeConfig
    run: RunResult
    footprint_bytes: int
    config: ExperimentConfig
    # The run's RuntimeMonitor when ExperimentConfig.monitor was set (its
    # trailing window is closed, so snapshots include the whole run).
    monitor: "RuntimeMonitor | None" = None

    @property
    def iteration(self) -> IterationResult:
        return self.run.steady_state()

    @property
    def seconds(self) -> float:
        return self.iteration.seconds

    def traffic_gb(self, device: str) -> tuple[float, float]:
        """(read GB, write GB) for one iteration, *unscaled* back to paper
        magnitudes so reports are directly comparable to Figure 5."""
        read, write = self.iteration.traffic_gb(device)
        return read * self.config.scale, write * self.config.scale

    def dram_utilization(self) -> float:
        """Average DRAM bus utilisation over the iteration (Figure 6)."""
        from repro.sim.bandwidth import TransferKind, dram_bandwidth_model

        snap = self.iteration.traffic.get("DRAM")
        if snap is None or self.seconds <= 0:
            return 0.0
        peak = dram_bandwidth_model().peak(TransferKind.READ)
        return snap.total_bytes / (self.seconds * peak)


# The evaluation matrix: ``matrix[model][mode]`` is that cell's run.
Matrix = dict[str, dict[str, ModeResult]]


def available_models() -> list[str]:
    """Every ``--model`` key: Table III plus ``tiny``."""
    return sorted([*MODEL_REGISTRY, "tiny"])


def model_trace(model_key: str, config: ExperimentConfig) -> KernelTrace:
    """The scaled training trace a ``--model`` key names.

    Besides the Table III models, ``tiny`` is a synthetic 12-layer FILO
    stack small enough for CI smoke tests: ~60 kernels, but a ~360 GB peak
    footprint against 180 GB of DRAM, so real eviction/prefetch traffic
    shows up at any ``scale`` (tensors and capacities shrink together).
    """
    if model_key == "tiny":
        trace = filo_stack_trace(
            depth=12,
            activation_bytes=24 * GB,
            weight_bytes=2 * GB,
            flops_per_layer=2e12,
        )
    else:
        try:
            spec = MODEL_REGISTRY[model_key]
        except KeyError:
            raise ConfigurationError(
                f"unknown model {model_key!r}; "
                f"known: {', '.join(available_models())}"
            ) from None
        trace = spec.builder().training_trace()
    return trace.scaled(config.scale)


def _gc_config(footprint: int, config: ExperimentConfig) -> GcConfig:
    return GcConfig(
        trigger_bytes=max(1, int(footprint * config.gc_trigger_fraction)),
        pause_per_object=2e-6 / config.scale,
        base_pause=0.05 / config.scale,
    )


def tenant_executor(
    session: Session,
    config: ExperimentConfig,
    footprint: int | None,
    *,
    sample_timeline: bool,
    stream_name: str = "",
) -> Executor:
    """The adapter + executor one experiment tenant runs on.

    ``footprint`` sizes the collector's trigger and scales its pauses with
    the workload; ``None`` keeps the executor's unscaled default collector
    (the Section VI panels, whose traces retire eagerly).
    """
    return Executor(
        CachedArraysAdapter(session, config.scaled_params()),
        gc_config=None if footprint is None else _gc_config(footprint, config),
        sample_timeline=sample_timeline,
        stream_name=stream_name,
    )


@dataclass
class PreparedRun:
    """A fully-built (adapter, executor, annotated-trace) ready to run.

    ``run_trace_mode`` and the elastic snapshot runner
    (:mod:`repro.runtime.elastic`) both construct through
    :func:`prepare_trace_mode`, so a run paused at a kernel boundary and
    restored in a fresh process is built bit-identically to an
    uninterrupted one — the golden virtual-time digests pin this. The whole
    object is picklable (it is the root of a runtime snapshot).
    """

    model: str
    mode: ModeConfig
    config: ExperimentConfig
    footprint_bytes: int
    annotated: KernelTrace
    adapter: "CachedArraysAdapter | TwoLMAdapter"
    executor: Executor

    def execute(self) -> RunResult | None:
        """Run (or resume) the trace; ``None`` when paused mid-run."""
        run = self.executor.run(
            self.annotated, iterations=self.config.iterations
        )
        return None if self.executor.paused else run

    def finish(self, run: RunResult) -> ModeResult:
        monitor = getattr(self.adapter.tracer, "monitor", None)
        if monitor is not None:
            monitor.finish()
        return ModeResult(
            model=self.model,
            mode=self.mode,
            run=run,
            footprint_bytes=self.footprint_bytes,
            config=self.config,
            monitor=monitor,
        )


def prepare_trace_mode(
    trace: KernelTrace,
    mode_name: str | ModeConfig,
    config: ExperimentConfig,
    *,
    model_label: str = "",
) -> PreparedRun:
    """Build the system + executor for one mode without running it."""
    mode_cfg = resolve_mode(mode_name)
    annotated = annotate(trace, memopt=mode_cfg.memopt)
    footprint = trace.peak_live_bytes()  # from annotate's walk
    if mode_cfg.system == "2lm":
        system = TwoLMSystem(
            config.build_dram(),
            config.build_nvram(),
            line_size=config.line_size,
        )
        adapter = TwoLMAdapter(system, config.scaled_params())
        adapter.tracer = pick_tracer(adapter.clock, config)
        executor = Executor(
            adapter,
            gc_config=_gc_config(footprint, config),
            sample_timeline=config.sample_timeline,
        )
    else:
        if config.dram_bytes > 0:
            policy = mode_cfg.make_policy("DRAM", "NVRAM")
        else:
            from repro.policies.noop import SingleDevicePolicy

            policy = SingleDevicePolicy("NVRAM")
        session = Session(config.session_config(), policy=policy)
        executor = tenant_executor(
            session, config, footprint, sample_timeline=config.sample_timeline
        )
    return PreparedRun(
        model=model_label or trace.name,
        mode=mode_cfg,
        config=config,
        footprint_bytes=footprint,
        annotated=annotated,
        adapter=executor.adapter,
        executor=executor,
    )


def run_trace_mode(
    trace: KernelTrace,
    mode_name: str | ModeConfig,
    config: ExperimentConfig,
    *,
    model_label: str = "",
) -> ModeResult:
    """Run an already-scaled trace under one operating mode."""
    prepared = prepare_trace_mode(
        trace, mode_name, config, model_label=model_label
    )
    run = prepared.executor.run(
        prepared.annotated, iterations=config.iterations
    )
    return prepared.finish(run)


def run_mode(
    model_key: str, mode_name: str | ModeConfig, config: ExperimentConfig
) -> ModeResult:
    """Run one model key (Table III or ``tiny``) under one operating mode."""
    trace = model_trace(model_key, config)
    return run_trace_mode(trace, mode_name, config, model_label=model_key)


def run_modes(
    model_key: str, mode_names: list[str], config: ExperimentConfig
) -> dict[str, ModeResult]:
    """Run one model across several modes (fresh system per mode)."""
    trace = model_trace(model_key, config)
    return {
        name: run_trace_mode(trace, name, config, model_label=model_key)
        for name in mode_names
    }


def run_matrix(
    config: ExperimentConfig, models: tuple[str, ...], modes: tuple[str, ...]
) -> Matrix:
    """The evaluation matrix: every (model, mode) cell, each run once.

    Figures 2-6 are views of this one mapping (runtime, heap occupancy,
    cache tags, traffic and bus utilisation are all counters of the same
    iterations), so this is the only models x modes loop they share.
    """
    return {model: run_modes(model, list(modes), config) for model in models}


def float_hex_digest(parts: Iterable[str | float | int]) -> str:
    """The sha256 hex digest of ``parts`` fed in order: a ``str`` as it
    is, a ``float`` as its ``float.hex()``, an ``int`` in decimal.

    The determinism fingerprint of the ``--check`` commands: two results
    digest alike only when every float is bit-identical.
    """
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, float):
            part = part.hex()
        elif not isinstance(part, str):
            part = str(part)
        hasher.update(part.encode())
    return hasher.hexdigest()

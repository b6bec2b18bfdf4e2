"""Figure 3: resident heap memory through one ResNet iteration (2LM modes).

The unoptimised run's heap grows monotonically until the garbage collector
fires (the paper's cliff around t=220 s), while the annotated (``2LM: M``)
run proactively frees forward-pass products as the backward pass consumes
them — so its peak occupancy stays at the model's true footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, ModeResult, run_mode
from repro.experiments.report import header
from repro.telemetry.timeline import Timeline
from repro.units import GB

__all__ = ["Fig3Result", "run", "render"]


@dataclass
class Fig3Result:
    config: ExperimentConfig
    model: str
    unoptimized: ModeResult  # 2LM:0
    optimized: ModeResult  # 2LM:M

    def heap_timeline(self, mode_result: ModeResult) -> Timeline:
        return mode_result.run.occupancy_timeline["NVRAM"]

    def peak_gb(self, mode_result: ModeResult) -> float:
        return self.heap_timeline(mode_result).peak() * self.config.scale / GB


def run(
    config: ExperimentConfig | None = None, *, model: str = "resnet200-large"
) -> Fig3Result:
    config = config or ExperimentConfig()
    if not config.sample_timeline:
        raise ValueError("Figure 3 needs sample_timeline=True")
    return Fig3Result(
        config=config,
        model=model,
        unoptimized=run_mode(model, "2LM:0", config),
        optimized=run_mode(model, "2LM:M", config),
    )


def _render_series(result: Fig3Result, mode_result: ModeResult, points: int = 60) -> str:
    timeline = result.heap_timeline(mode_result).downsample(points)
    scale = result.config.scale
    it = mode_result.run.steady_state()
    lines = []
    peak = result.heap_timeline(mode_result).peak()
    for sample in timeline:
        if not it.start_time <= sample.time <= it.end_time:
            continue
        t = (sample.time - it.start_time) * scale
        gb = sample.value * scale / GB
        width = int(40 * sample.value / peak) if peak else 0
        lines.append(f"  t={t:7.1f}s {'#' * width} {gb:7.1f} GB")
    return "\n".join(lines)


def render(result: Fig3Result) -> str:
    sections = [
        header(
            f"Figure 3 — resident heap memory through one {result.model} iteration",
            "2LM heap is implicitly managed by the hardware DRAM cache",
        ),
        f"\n2LM:∅  (GC-managed; peak {result.peak_gb(result.unoptimized):.0f} GB, "
        f"{result.unoptimized.iteration.gc_collections} collection(s) in-iteration):",
        _render_series(result, result.unoptimized),
        f"\n2LM:M  (eager retire; peak {result.peak_gb(result.optimized):.0f} GB):",
        _render_series(result, result.optimized),
    ]
    return "\n".join(sections)

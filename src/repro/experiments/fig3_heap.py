"""Figure 3: resident heap memory through one ResNet iteration (2LM modes).

The unoptimised run's heap grows monotonically until the garbage collector
fires (the paper's cliff around t=220 s), while the annotated (``2LM: M``)
run proactively frees forward-pass products as the backward pass consumes
them — so its peak occupancy stays at the model's true footprint.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentConfig, Matrix, ModeResult, run_matrix
from repro.experiments.report import header
from repro.telemetry.timeline import Timeline
from repro.units import GB

__all__ = ["MODELS", "MODES", "run", "heap_timeline", "peak_gb", "render"]

MODELS = ("resnet200-large",)
MODES = ("2LM:0", "2LM:M")  # GC-managed vs eager retire


def heap_timeline(cell: ModeResult) -> Timeline:
    return cell.run.occupancy_timeline["NVRAM"]


def peak_gb(cell: ModeResult) -> float:
    return heap_timeline(cell).peak() * cell.config.scale / GB


def run(config: ExperimentConfig | None = None) -> Matrix:
    config = config or ExperimentConfig()
    if not config.sample_timeline:
        raise ValueError("Figure 3 needs sample_timeline=True")
    return run_matrix(config, MODELS, MODES)


def _render_series(cell: ModeResult, points: int = 60) -> str:
    timeline = heap_timeline(cell).downsample(points)
    scale = cell.config.scale
    it = cell.run.steady_state()
    lines = []
    peak = heap_timeline(cell).peak()
    for sample in timeline:
        if not it.start_time <= sample.time <= it.end_time:
            continue
        t = (sample.time - it.start_time) * scale
        gb = sample.value * scale / GB
        width = int(40 * sample.value / peak) if peak else 0
        lines.append(f"  t={t:7.1f}s {'#' * width} {gb:7.1f} GB")
    return "\n".join(lines)


def render(matrix: Matrix) -> str:
    sections = []
    for model, by_mode in matrix.items():
        unoptimized, optimized = by_mode["2LM:0"], by_mode["2LM:M"]
        sections += [
            header(
                f"Figure 3 — resident heap memory through one {model} iteration",
                "2LM heap is implicitly managed by the hardware DRAM cache",
            ),
            f"\n2LM:∅  (GC-managed; peak {peak_gb(unoptimized):.0f} GB, "
            f"{unoptimized.iteration.gc_collections} collection(s) in-iteration):",
            _render_series(unoptimized),
            f"\n2LM:M  (eager retire; peak {peak_gb(optimized):.0f} GB):",
            _render_series(optimized),
        ]
    return "\n".join(sections)

"""Figure 6: average DRAM bus utilisation over one training iteration.

The paper's headline contrast: for ResNet (batch 2048, large transfers)
CachedArrays' shaped copies achieve *higher* average DRAM utilisation than
the hardware cache's haphazard line traffic; for VGG (batch 256, small
transfers) the situation reverses because the copy engine's parallelisation
overhead dominates small transfers. As CA optimisations are applied,
utilisation tends up while total traffic goes down.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentConfig, Matrix, run_matrix
from repro.experiments.report import bars, header

__all__ = ["MODELS", "MODES", "run", "utilization", "render"]

MODELS = ("resnet200-large", "vgg416-large")
MODES = ("2LM:0", "2LM:M", "CA:0", "CA:L", "CA:LM", "CA:LMP")


def utilization(matrix: Matrix, model: str, mode: str) -> float:
    return matrix[model][mode].dram_utilization()


def run(
    config: ExperimentConfig | None = None,
    *,
    models: tuple[str, ...] = MODELS,
    modes: tuple[str, ...] = MODES,
) -> Matrix:
    return run_matrix(config or ExperimentConfig(), models, modes)


def render(matrix: Matrix) -> str:
    sections = [header("Figure 6 — average DRAM bus utilisation (one iteration)")]
    for model, by_mode in matrix.items():
        sections.append(f"\n{model}:")
        labels = [cell.mode.pretty for cell in by_mode.values()]
        values = [100.0 * utilization(matrix, model, mode) for mode in by_mode]
        sections.append(bars(labels, values, unit="%"))
        if "CA:0" in by_mode and "2LM:0" in by_mode:
            ca0 = utilization(matrix, model, "CA:0")
            hw = utilization(matrix, model, "2LM:0")
            relation = ">" if ca0 > hw else "<"
            sections.append(
                f"CA:∅ {relation} 2LM:∅ "
                f"(paper: higher for ResNet, reversed for VGG)"
            )
    return "\n".join(sections)

"""Figure 2: per-iteration runtime for the large networks across all modes.

Paper claims this harness must reproduce:

* ``2LM: M`` beats ``2LM: 0`` — eager freeing helps even the hardware cache;
* ``CA: 0`` is slower than ``2LM: M`` everywhere, and for VGG slower even
  than ``2LM: 0``;
* ``CA: L`` beats ``CA: 0``; ``CA: LM`` improves further and wins overall
  (1.4x-2.03x over the 2LM baseline in the paper);
* prefetching (``CA: LMP``) *hurts* DenseNet and ResNet but slightly helps
  VGG.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentConfig, Matrix, run_matrix
from repro.experiments.report import bars, header, table

__all__ = ["MODELS", "MODES", "run", "seconds", "speedup", "render"]

MODELS = ("densenet264-large", "resnet200-large", "vgg416-large")
MODES = ("2LM:0", "2LM:M", "CA:0", "CA:L", "CA:LM", "CA:LMP")


def seconds(matrix: Matrix, model: str, mode: str) -> float:
    """Iteration runtime of one cell, in unscaled seconds."""
    cell = matrix[model][mode]
    return cell.iteration.seconds * cell.config.scale


def speedup(
    matrix: Matrix, model: str, mode: str = "CA:LM", base: str = "2LM:0"
) -> float:
    return seconds(matrix, model, base) / seconds(matrix, model, mode)


def run(
    config: ExperimentConfig | None = None,
    *,
    models: tuple[str, ...] = MODELS,
    modes: tuple[str, ...] = MODES,
) -> Matrix:
    return run_matrix(config or ExperimentConfig(), models, modes)


def render(matrix: Matrix) -> str:
    first_row = next(iter(matrix.values()))
    scale = next(iter(first_row.values())).config.scale
    sections = [
        header(
            "Figure 2 — average execution time per training iteration (large networks)",
            f"scale=1/{scale}; times rescaled to paper magnitudes",
        )
    ]
    rows = []
    for model, by_mode in matrix.items():
        for mode, cell in by_mode.items():
            rows.append(
                (model, cell.mode.pretty, f"{seconds(matrix, model, mode):.1f} s")
            )
    sections.append(table(("model", "mode", "iteration time"), rows))
    for model, by_mode in matrix.items():
        sections.append(f"\n{model}:")
        labels = [cell.mode.pretty for cell in by_mode.values()]
        values = [seconds(matrix, model, mode) for mode in by_mode]
        sections.append(bars(labels, values, unit=" s"))
        sections.append(
            f"CA:LM speedup over 2LM:∅ = {speedup(matrix, model):.2f}x "
            "(paper reports 1.4x-2.03x)"
        )
    return "\n".join(sections)

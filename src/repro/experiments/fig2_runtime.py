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

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentConfig, ModeResult, run_modes
from repro.experiments.report import bars, header, table

__all__ = ["Fig2Result", "run", "render"]

LARGE_MODELS = ("densenet264-large", "resnet200-large", "vgg416-large")
ALL_MODES = ("2LM:0", "2LM:M", "CA:0", "CA:L", "CA:LM", "CA:LMP")


@dataclass
class Fig2Result:
    """Iteration runtimes per (model, mode), in unscaled seconds."""

    config: ExperimentConfig
    results: dict[str, dict[str, ModeResult]] = field(default_factory=dict)

    def seconds(self, model: str, mode: str) -> float:
        return self.results[model][mode].iteration.seconds * self.config.scale

    def speedup(self, model: str, mode: str = "CA:LM", base: str = "2LM:0") -> float:
        return self.seconds(model, base) / self.seconds(model, mode)


def run(
    config: ExperimentConfig | None = None,
    *,
    models: tuple[str, ...] = LARGE_MODELS,
    modes: tuple[str, ...] = ALL_MODES,
) -> Fig2Result:
    config = config or ExperimentConfig()
    out = Fig2Result(config=config)
    for model in models:
        out.results[model] = run_modes(model, list(modes), config)
    return out


def render(result: Fig2Result) -> str:
    sections = [
        header(
            "Figure 2 — average execution time per training iteration (large networks)",
            f"scale=1/{result.config.scale}; times rescaled to paper magnitudes",
        )
    ]
    rows = []
    for model, by_mode in result.results.items():
        for mode, mode_result in by_mode.items():
            rows.append(
                (
                    model,
                    mode_result.mode.pretty,
                    f"{result.seconds(model, mode):.1f} s",
                )
            )
    sections.append(table(("model", "mode", "iteration time"), rows))
    for model in result.results:
        sections.append(f"\n{model}:")
        labels = [result.results[model][m].mode.pretty for m in result.results[model]]
        values = [result.seconds(model, m) for m in result.results[model]]
        sections.append(bars(labels, values, unit=" s"))
        sections.append(
            f"CA:LM speedup over 2LM:∅ = {result.speedup(model):.2f}x "
            "(paper reports 1.4x-2.03x)"
        )
    return "\n".join(sections)

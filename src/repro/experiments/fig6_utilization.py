"""Figure 6: average DRAM bus utilisation over one training iteration.

The paper's headline contrast: for ResNet (batch 2048, large transfers)
CachedArrays' shaped copies achieve *higher* average DRAM utilisation than
the hardware cache's haphazard line traffic; for VGG (batch 256, small
transfers) the situation reverses because the copy engine's parallelisation
overhead dominates small transfers. As CA optimisations are applied,
utilisation tends up while total traffic goes down.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentConfig, ModeResult, run_modes
from repro.experiments.report import bars, header

__all__ = ["Fig6Result", "run", "render"]

MODELS = ("resnet200-large", "vgg416-large")
MODES = ("2LM:0", "2LM:M", "CA:0", "CA:L", "CA:LM", "CA:LMP")


@dataclass
class Fig6Result:
    config: ExperimentConfig
    results: dict[str, dict[str, ModeResult]] = field(default_factory=dict)

    def utilization(self, model: str, mode: str) -> float:
        return self.results[model][mode].dram_utilization()


def run(
    config: ExperimentConfig | None = None,
    *,
    models: tuple[str, ...] = MODELS,
    modes: tuple[str, ...] = MODES,
) -> Fig6Result:
    config = config or ExperimentConfig()
    out = Fig6Result(config=config)
    for model in models:
        out.results[model] = run_modes(model, list(modes), config)
    return out


def render(result: Fig6Result) -> str:
    sections = [header("Figure 6 — average DRAM bus utilisation (one iteration)")]
    for model, by_mode in result.results.items():
        sections.append(f"\n{model}:")
        labels = [r.mode.pretty for r in by_mode.values()]
        values = [100.0 * result.utilization(model, m) for m in by_mode]
        sections.append(bars(labels, values, unit="%"))
        if "CA:0" in by_mode and "2LM:0" in by_mode:
            ca0 = result.utilization(model, "CA:0")
            hw = result.utilization(model, "2LM:0")
            relation = ">" if ca0 > hw else "<"
            sections.append(
                f"CA:∅ {relation} 2LM:∅ "
                f"(paper: higher for ResNet, reversed for VGG)"
            )
    return "\n".join(sections)

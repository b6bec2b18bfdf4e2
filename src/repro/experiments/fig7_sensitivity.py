"""Figure 7: sensitivity to DRAM capacity (small networks, CA: LM).

Sweeps the DRAM budget from the full 180 GB down to 0 (NVRAM only) and
reports both wall-clock time and the "perfectly asynchronous data movement"
projection (iteration time with all synchronous copy time overlapped away).

Paper claims this harness reproduces:

* NVRAM-only runs pay a 3-4x penalty;
* a small amount of DRAM recovers much of the performance (output tensors
  land in DRAM, evictions take the non-temporal optimised path);
* the async projection is nearly flat for DenseNet and ResNet but not for
  VGG, whose kernels are read-bandwidth sensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentConfig, ModeResult, run_mode
from repro.experiments.report import header, table
from repro.units import GB

__all__ = ["Fig7Result", "run", "render", "DEFAULT_BUDGETS"]

DEFAULT_BUDGETS = (180, 135, 90, 45, 20, 0)  # GB of DRAM
SMALL_MODELS = ("densenet264-small", "resnet200-small", "vgg116-small")


@dataclass
class Fig7Result:
    config: ExperimentConfig
    budgets_gb: tuple[int, ...]
    # model -> budget -> result
    results: dict[str, dict[int, ModeResult]] = field(default_factory=dict)

    def seconds(self, model: str, budget: int) -> float:
        return self.results[model][budget].iteration.seconds * self.config.scale

    def async_seconds(self, model: str, budget: int) -> float:
        it = self.results[model][budget].iteration
        return it.projected_async_seconds * self.config.scale

    def nvram_only_penalty(self, model: str) -> float:
        full = max(self.budgets_gb)
        return self.seconds(model, 0) / self.seconds(model, full)


def run(
    config: ExperimentConfig | None = None,
    *,
    models: tuple[str, ...] = SMALL_MODELS,
    budgets_gb: tuple[int, ...] = DEFAULT_BUDGETS,
) -> Fig7Result:
    config = config or ExperimentConfig()
    out = Fig7Result(config=config, budgets_gb=budgets_gb)
    for model in models:
        out.results[model] = {}
        for budget in budgets_gb:
            budget_config = config.with_dram(budget * GB)
            out.results[model][budget] = run_mode(model, "CA:LM", budget_config)
    return out


def render(result: Fig7Result) -> str:
    sections = [
        header(
            "Figure 7 — runtime vs DRAM budget (small networks, CA: LM)",
            "wall = synchronous movement; async = projected perfect overlap",
        )
    ]
    for model, by_budget in result.results.items():
        rows = []
        full = max(result.budgets_gb)
        base = result.seconds(model, full)
        for budget in result.budgets_gb:
            rows.append(
                (
                    f"{budget} GB",
                    f"{result.seconds(model, budget):.1f} s",
                    f"{result.seconds(model, budget) / base:.2f}x",
                    f"{result.async_seconds(model, budget):.1f} s",
                )
            )
        sections.append(f"\n{model}:")
        sections.append(
            table(("DRAM budget", "wall", "vs full DRAM", "async projection"), rows)
        )
        sections.append(
            f"NVRAM-only penalty: {result.nvram_only_penalty(model):.2f}x "
            "(paper: 3-4x for DenseNet, similar for others)"
        )
    return "\n".join(sections)

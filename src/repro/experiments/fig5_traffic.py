"""Figure 5: data moved per iteration (DRAM/NVRAM x read/write, all modes).

Key shapes from the paper this harness reproduces:

* local allocation (**L**) slashes NVRAM reads and DRAM writes versus CA: ∅
  (no more compulsory NVRAM-to-DRAM copy of fresh arrays);
* memory optimisations (**M**) slash NVRAM *writes* (dead data is never
  written back; DenseNet drops from ~1100 GB to ~350 GB in the paper);
* for CA: L (no M), NVRAM writes exceed what eager freeing would need;
* prefetching (**P**) trades NVRAM reads for DRAM reads (VGG's NVRAM read
  traffic drops by ~5.4x in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.common import ExperimentConfig, ModeResult, run_modes
from repro.experiments.report import header, table

__all__ = ["Fig5Result", "run", "render"]

MODELS = ("densenet264-large", "resnet200-large", "vgg416-large")
MODES = ("2LM:0", "2LM:M", "CA:0", "CA:L", "CA:LM", "CA:LMP")


@dataclass
class Fig5Result:
    config: ExperimentConfig
    results: dict[str, dict[str, ModeResult]] = field(default_factory=dict)

    def gb(self, model: str, mode: str, device: str) -> tuple[float, float]:
        """(read GB, write GB) at paper magnitude."""
        return self.results[model][mode].traffic_gb(device)

    def nvram_write_drop_with_memopt(self, model: str) -> float:
        """NVRAM write reduction factor CA:L -> CA:LM."""
        _, writes_l = self.gb(model, "CA:L", "NVRAM")
        _, writes_lm = self.gb(model, "CA:LM", "NVRAM")
        return writes_l / writes_lm if writes_lm else float("inf")

    def nvram_read_drop_with_prefetch(self, model: str) -> float:
        """NVRAM read reduction factor CA:LM -> CA:LMP."""
        reads_lm, _ = self.gb(model, "CA:LM", "NVRAM")
        reads_lmp, _ = self.gb(model, "CA:LMP", "NVRAM")
        return reads_lm / reads_lmp if reads_lmp else float("inf")


def run(
    config: ExperimentConfig | None = None,
    *,
    models: tuple[str, ...] = MODELS,
    modes: tuple[str, ...] = MODES,
) -> Fig5Result:
    config = config or ExperimentConfig()
    out = Fig5Result(config=config)
    for model in models:
        out.results[model] = run_modes(model, list(modes), config)
    return out


def render(result: Fig5Result) -> str:
    sections = [
        header("Figure 5 — data moved in one training iteration (GB, paper scale)")
    ]
    for model, by_mode in result.results.items():
        rows = []
        for mode, mode_result in by_mode.items():
            dram_r, dram_w = result.gb(model, mode, "DRAM")
            nvram_r, nvram_w = result.gb(model, mode, "NVRAM")
            rows.append(
                (
                    mode_result.mode.pretty,
                    f"{dram_r:,.0f}",
                    f"{dram_w:,.0f}",
                    f"{nvram_r:,.0f}",
                    f"{nvram_w:,.0f}",
                )
            )
        sections.append(f"\n{model}:")
        sections.append(
            table(
                ("mode", "DRAM read", "DRAM write", "NVRAM read", "NVRAM write"),
                rows,
            )
        )
        sections.append(
            f"M cuts NVRAM writes by {result.nvram_write_drop_with_memopt(model):.1f}x; "
            f"P cuts NVRAM reads by {result.nvram_read_drop_with_prefetch(model):.1f}x"
        )
    return "\n".join(sections)

"""Figure 4: DRAM-cache tag statistics for the 2LM ResNet runs.

The paper reports that annotating memory lifetimes (``2LM: M``) gives the
hardware cache an ~18% higher hit rate and ~50% lower dirty-miss rate — the
mechanism behind Figure 2's 2LM improvement: freed-and-reused virtual pages
are still cache-resident, so re-writing them hits instead of evicting dirty
dead data.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, ModeResult, run_mode
from repro.experiments.report import header, table
from repro.twolm.dramcache import CacheStats

__all__ = ["Fig4Result", "run", "render"]


@dataclass
class Fig4Result:
    config: ExperimentConfig
    model: str
    unoptimized: ModeResult
    optimized: ModeResult

    def stats(self, mode_result: ModeResult) -> CacheStats:
        cache = mode_result.iteration.cache
        assert cache is not None, "2LM runs always carry cache stats"
        return cache

    @property
    def hit_rate_uplift(self) -> float:
        base = self.stats(self.unoptimized).hit_rate
        return (self.stats(self.optimized).hit_rate - base) / base

    @property
    def dirty_miss_drop(self) -> float:
        base = self.stats(self.unoptimized).dirty_miss_rate
        return (base - self.stats(self.optimized).dirty_miss_rate) / base


def run(
    config: ExperimentConfig | None = None, *, model: str = "resnet200-large"
) -> Fig4Result:
    config = config or ExperimentConfig()
    return Fig4Result(
        config=config,
        model=model,
        unoptimized=run_mode(model, "2LM:0", config),
        optimized=run_mode(model, "2LM:M", config),
    )


def render(result: Fig4Result) -> str:
    rows = []
    for label, mode_result in (
        ("2LM: ∅", result.unoptimized),
        ("2LM: M", result.optimized),
    ):
        stats = result.stats(mode_result)
        rows.append(
            (
                label,
                f"{100 * stats.hit_rate:.1f}%",
                f"{100 * stats.clean_miss_rate:.1f}%",
                f"{100 * stats.dirty_miss_rate:.1f}%",
                f"{stats.accesses:,}",
            )
        )
    return "\n".join(
        [
            header(
                f"Figure 4 — DRAM cache tag statistics, one {result.model} iteration"
            ),
            table(("mode", "hit", "clean miss", "dirty miss", "line accesses"), rows),
            "",
            f"hit-rate uplift from annotations: {100 * result.hit_rate_uplift:.0f}% "
            "(paper: ~18%)",
            f"dirty-miss-rate reduction:        {100 * result.dirty_miss_drop:.0f}% "
            "(paper: ~50%)",
        ]
    )

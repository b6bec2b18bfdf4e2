"""Figure 4: DRAM-cache tag statistics for the 2LM ResNet runs.

The paper reports that annotating memory lifetimes (``2LM: M``) gives the
hardware cache an ~18% higher hit rate and ~50% lower dirty-miss rate — the
mechanism behind Figure 2's 2LM improvement: freed-and-reused virtual pages
are still cache-resident, so re-writing them hits instead of evicting dirty
dead data.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentConfig, Matrix, ModeResult, run_matrix
from repro.experiments.report import header, table
from repro.twolm.dramcache import CacheStats

__all__ = [
    "MODELS",
    "MODES",
    "run",
    "stats",
    "hit_rate_uplift",
    "dirty_miss_drop",
    "render",
]

MODELS = ("resnet200-large",)
MODES = ("2LM:0", "2LM:M")


def stats(cell: ModeResult) -> CacheStats:
    cache = cell.iteration.cache
    assert cache is not None, "2LM runs always carry cache stats"
    return cache


def hit_rate_uplift(matrix: Matrix, model: str = MODELS[0]) -> float:
    base = stats(matrix[model]["2LM:0"]).hit_rate
    return (stats(matrix[model]["2LM:M"]).hit_rate - base) / base


def dirty_miss_drop(matrix: Matrix, model: str = MODELS[0]) -> float:
    base = stats(matrix[model]["2LM:0"]).dirty_miss_rate
    return (base - stats(matrix[model]["2LM:M"]).dirty_miss_rate) / base


def run(config: ExperimentConfig | None = None) -> Matrix:
    return run_matrix(config or ExperimentConfig(), MODELS, MODES)


def render(matrix: Matrix) -> str:
    sections = []
    for model, by_mode in matrix.items():
        rows = []
        for cell in by_mode.values():
            cache = stats(cell)
            rows.append(
                (
                    cell.mode.pretty,
                    f"{100 * cache.hit_rate:.1f}%",
                    f"{100 * cache.clean_miss_rate:.1f}%",
                    f"{100 * cache.dirty_miss_rate:.1f}%",
                    f"{cache.accesses:,}",
                )
            )
        uplift, drop = hit_rate_uplift(matrix, model), dirty_miss_drop(matrix, model)
        sections += [
            header(f"Figure 4 — DRAM cache tag statistics, one {model} iteration"),
            table(("mode", "hit", "clean miss", "dirty miss", "line accesses"), rows),
            "",
            f"hit-rate uplift from annotations: {100 * uplift:.0f}% (paper: ~18%)",
            f"dirty-miss-rate reduction:        {100 * drop:.0f}% (paper: ~50%)",
        ]
    return "\n".join(sections)

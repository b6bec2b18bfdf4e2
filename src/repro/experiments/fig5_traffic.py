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

from repro.experiments.common import ExperimentConfig, Matrix, run_matrix
from repro.experiments.report import header, table

__all__ = [
    "MODELS",
    "MODES",
    "run",
    "nvram_write_drop_with_memopt",
    "nvram_read_drop_with_prefetch",
    "render",
]

MODELS = ("densenet264-large", "resnet200-large", "vgg416-large")
MODES = ("2LM:0", "2LM:M", "CA:0", "CA:L", "CA:LM", "CA:LMP")


def nvram_write_drop_with_memopt(matrix: Matrix, model: str) -> float:
    """NVRAM write reduction factor CA:L -> CA:LM."""
    _, writes_l = matrix[model]["CA:L"].traffic_gb("NVRAM")
    _, writes_lm = matrix[model]["CA:LM"].traffic_gb("NVRAM")
    return writes_l / writes_lm if writes_lm else float("inf")


def nvram_read_drop_with_prefetch(matrix: Matrix, model: str) -> float:
    """NVRAM read reduction factor CA:LM -> CA:LMP."""
    reads_lm, _ = matrix[model]["CA:LM"].traffic_gb("NVRAM")
    reads_lmp, _ = matrix[model]["CA:LMP"].traffic_gb("NVRAM")
    return reads_lm / reads_lmp if reads_lmp else float("inf")


def run(
    config: ExperimentConfig | None = None,
    *,
    models: tuple[str, ...] = MODELS,
    modes: tuple[str, ...] = MODES,
) -> Matrix:
    return run_matrix(config or ExperimentConfig(), models, modes)


def render(matrix: Matrix) -> str:
    sections = [
        header("Figure 5 — data moved in one training iteration (GB, paper scale)")
    ]
    for model, by_mode in matrix.items():
        rows = []
        for cell in by_mode.values():
            dram_r, dram_w = cell.traffic_gb("DRAM")
            nvram_r, nvram_w = cell.traffic_gb("NVRAM")
            rows.append(
                (
                    cell.mode.pretty,
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
        writes = nvram_write_drop_with_memopt(matrix, model)
        reads = nvram_read_drop_with_prefetch(matrix, model)
        sections.append(
            f"M cuts NVRAM writes by {writes:.1f}x; P cuts NVRAM reads by {reads:.1f}x"
        )
    return "\n".join(sections)

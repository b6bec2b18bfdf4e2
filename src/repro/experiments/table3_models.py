"""Table III: benchmark networks, batch sizes, and memory footprints.

Rebuilds every registered model, measures the peak-live footprint from its
training trace, and compares against the paper's reported numbers (large
networks) or the 170-180 GB window targeted for the small ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.report import header, table
from repro.nn.models import MODEL_REGISTRY, ModelSpec
from repro.units import GB

__all__ = ["Table3Row", "Table3Result", "run", "render"]


@dataclass(frozen=True)
class Table3Row:
    spec: ModelSpec
    measured_footprint: int
    kernels: int
    parameters_bytes: int
    flops_per_iteration: float

    @property
    def relative_error(self) -> float | None:
        if self.spec.paper_footprint is None:
            return None
        return (
            self.measured_footprint - self.spec.paper_footprint
        ) / self.spec.paper_footprint


@dataclass
class Table3Result:
    rows: list[Table3Row] = field(default_factory=list)


def run() -> Table3Result:
    result = Table3Result()
    for spec in MODEL_REGISTRY.values():
        graph = spec.builder()
        trace = graph.training_trace()
        result.rows.append(
            Table3Row(
                spec=spec,
                measured_footprint=trace.peak_live_bytes(),
                kernels=sum(1 for _ in trace.kernels()),
                parameters_bytes=graph.parameter_bytes(),
                flops_per_iteration=trace.total_kernel_flops(),
            )
        )
    return result


def render(result: Table3Result) -> str:
    rows = []
    for row in result.rows:
        paper = (
            f"{row.spec.paper_footprint / GB:.0f} GB"
            if row.spec.paper_footprint
            else "(fits in DRAM)"
        )
        error = (
            f"{100 * row.relative_error:+.1f}%"
            if row.relative_error is not None
            else "-"
        )
        rows.append(
            (
                row.spec.model,
                row.spec.batch,
                f"{row.measured_footprint / GB:.0f} GB",
                paper,
                error,
                row.kernels,
                f"{row.flops_per_iteration:.2e}",
            )
        )
    return "\n".join(
        [
            header("Table III — benchmark networks and measured footprints"),
            table(
                (
                    "model",
                    "batch",
                    "measured",
                    "paper",
                    "error",
                    "kernels/iter",
                    "FLOPs/iter",
                ),
                rows,
            ),
        ]
    )

"""The ``repro taxonomy`` experiment: a workload x policy bottleneck matrix.

DAMOV's methodology, ported to the simulator: run workloads with genuinely
different movement signatures under every operating mode, classify each run
with :mod:`repro.telemetry.taxonomy`, and report (a) each workload's
bottleneck class and (b) which policy wins within each class. The default
matrix covers the four corners of the class space:

* ``pointer-chase`` — dependent tiny reads, expected **latency**-bound;
* ``scan`` — NVRAM-resident table scans, expected **bandwidth**-bound;
* ``tiny-objects`` — KLOC-style allocator storm, expected **capacity**-bound
  (its per-transfer overheads surface in the latency share of its movement);
* ``stream-compute`` — a flop-heavy pipeline, expected **compute**-bound
  (the control: a workload the memory system does not bottleneck).

Every cell runs fully traced, with the runtime monitor attached, and
classifies from the event stream; the reference cell is also classified
from its monitor's rollups alone, pinning the contract that the bounded
rollups reach the same verdict as the full trace. Expected classes are
asserted on the *reference mode* (eviction-based policies): the 2LM
hardware cache has no eviction machinery visible to software, so capacity
pressure legitimately classifies as movement latency/bandwidth there.

Everything is deterministic: seeded workload builders, virtual-time
simulation, and a :meth:`TaxonomyResult.digest` fingerprint over every
reported number (``repro taxonomy --check`` runs the matrix twice and
compares).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentConfig,
    float_hex_digest,
    run_trace_mode,
)
from repro.policies.modes import MODES
from repro.telemetry.ledger import build_ledger
from repro.telemetry.monitor import MonitorConfig
from repro.telemetry.taxonomy import (
    CostModel,
    Taxonomy,
    classify_monitor,
    classify_trace,
)
from repro.units import GB
from repro.workloads.signatures import (
    pointer_chase_trace,
    scan_trace,
    tiny_objects_trace,
)
from repro.workloads.synthetic import streaming_trace
from repro.workloads.trace import KernelTrace

__all__ = [
    "DEFAULT_WORKLOADS",
    "REFERENCE_MODE",
    "TaxonomyCell",
    "TaxonomyResult",
    "WORKLOADS",
    "WorkloadSpec",
    "check_taxonomy",
    "render",
    "run_taxonomy",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """A movement-signature workload with its expected bottleneck class."""

    name: str
    build: Callable[[], KernelTrace]
    expected: str  # class asserted at the reference mode
    description: str


def _stream_compute_trace() -> KernelTrace:
    # The compute-bound control: big flops over DRAM-sized tensors. 12
    # stages x 5e13 flops is ~16.7 s of flop time per stage against ~20 ms
    # of DRAM service — memory is noise.
    return streaming_trace(
        stages=12, tensor_bytes=2 * GB, flops_per_stage=5e13
    )


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "pointer-chase",
            pointer_chase_trace,
            "latency",
            "dependent graph walk, DRAM-resident pool",
        ),
        WorkloadSpec(
            "scan",
            scan_trace,
            "bandwidth",
            "full scans of NVRAM-resident tables",
        ),
        WorkloadSpec(
            "tiny-objects",
            tiny_objects_trace,
            "capacity",
            "KLOC-style many-tiny-objects storm",
        ),
        WorkloadSpec(
            "stream-compute",
            _stream_compute_trace,
            "compute",
            "flop-heavy streaming pipeline (control)",
        ),
    )
}

DEFAULT_WORKLOADS = tuple(WORKLOADS)
REFERENCE_MODE = "CA:LM"

# Windows per run for the drill-down: coarse enough to stay readable,
# fine enough to see phase structure (waves, passes).
_WINDOWS_PER_RUN = 12


@dataclass
class TaxonomyCell:
    """One (workload, mode) cell: its classified run."""

    workload: str
    mode: str
    seconds: float  # steady-state iteration, scaled virtual seconds
    taxonomy: Taxonomy
    # Ledger evidence, filled for reference-mode cells only.
    top_moved: tuple[tuple[str, int], ...] = ()
    ping_pongs: int = 0

    @property
    def verdict(self) -> str:
        return self.taxonomy.verdict

    def to_json(self) -> dict:
        return {
            "seconds": self.seconds,
            "verdict": self.verdict,
            "fractions": {
                name: round(value, 6)
                for name, value in self.taxonomy.decomposition.fractions().items()
            },
        }


@dataclass
class TaxonomyResult:
    """The full workload x mode matrix plus the monitor cross-check."""

    cells: list[TaxonomyCell]
    monitor_taxonomies: dict[str, Taxonomy]  # workload -> rollups' verdict
    workloads: tuple[str, ...]
    modes: tuple[str, ...]
    reference_mode: str
    config: ExperimentConfig

    def cell(self, workload: str, mode: str) -> TaxonomyCell:
        for cell in self.cells:
            if cell.workload == workload and cell.mode == mode:
                return cell
        raise KeyError(f"no cell ({workload}, {mode})")

    def reference_cell(self, workload: str) -> TaxonomyCell:
        return self.cell(workload, self.reference_mode)

    def winners(self) -> dict[str, str]:
        """Per workload, the mode with the lowest steady-state time."""
        best: dict[str, tuple[float, str]] = {}
        for cell in self.cells:
            current = best.get(cell.workload)
            if current is None or cell.seconds < current[0]:
                best[cell.workload] = (cell.seconds, cell.mode)
        return {workload: mode for workload, (_, mode) in best.items()}

    def digest(self) -> str:
        """A determinism fingerprint over every reported number."""
        parts: list[str | float | int] = []
        for cell in self.cells:
            parts += (
                f"{cell.workload}|{cell.mode}|", float(cell.seconds), cell.verdict
            )
            decomposition = cell.taxonomy.decomposition
            parts += (
                float(decomposition.compute),
                float(decomposition.bandwidth),
                float(decomposition.latency),
                float(decomposition.capacity),
                float(decomposition.unattributed),
                "|", cell.taxonomy.copies, ":", cell.taxonomy.copy_bytes,
            )
        for workload in sorted(self.monitor_taxonomies):
            taxonomy = self.monitor_taxonomies[workload]
            parts += (
                f"mon|{workload}|{taxonomy.verdict}", float(taxonomy.wall_seconds)
            )
        return float_hex_digest(parts)

    def to_json(self) -> dict:
        scale = self.config.scale
        winners = self.winners()
        report: dict = {
            "reference_mode": self.reference_mode,
            "modes": list(self.modes),
            "scale": scale,
            "digest": self.digest(),
            "workloads": {},
        }
        for workload in self.workloads:
            reference = self.reference_cell(workload)
            monitor = self.monitor_taxonomies.get(workload)
            report["workloads"][workload] = {
                "expected": WORKLOADS[workload].expected,
                "verdict": reference.verdict,
                "monitor_verdict": monitor.verdict if monitor else None,
                "winner": winners[workload],
                "movement_intensity": reference.taxonomy.movement_intensity,
                "attributed_fraction": round(
                    reference.taxonomy.decomposition.attributed_fraction, 6
                ),
                "ping_pongs": reference.ping_pongs,
                "top_moved": [
                    {"object": name, "bytes": nbytes}
                    for name, nbytes in reference.top_moved
                ],
                "causes": [c.to_json() for c in reference.taxonomy.causes],
                "phases": {
                    name: d.to_json()
                    for name, d in sorted(reference.taxonomy.phases.items())
                },
                "windows": [w.to_json() for w in reference.taxonomy.windows],
                "cells": {
                    mode: self.cell(workload, mode).to_json()
                    for mode in self.modes
                },
            }
        return report


def run_taxonomy(
    config: ExperimentConfig | None = None,
    *,
    workloads: tuple[str, ...] | list[str] = DEFAULT_WORKLOADS,
    modes: tuple[str, ...] | list[str] | None = None,
    reference_mode: str = REFERENCE_MODE,
) -> TaxonomyResult:
    """Run and classify the workload x mode matrix.

    Every cell runs with full tracing and the monitor and is classified
    from its event stream; reference-mode cells are also classified from
    their monitor's rollups, get per-window and ledger evidence, and carry
    the pinned expected class.
    """
    config = config or ExperimentConfig()
    mode_names = tuple(modes) if modes else tuple(MODES)
    if reference_mode not in mode_names:
        raise ConfigurationError(
            f"reference mode {reference_mode!r} not in modes {list(mode_names)}"
        )
    unknown = [name for name in workloads if name not in WORKLOADS]
    if unknown:
        raise ConfigurationError(
            f"unknown workloads {unknown}; known: {sorted(WORKLOADS)}"
        )
    for what, names in (("workloads", workloads), ("modes", mode_names)):
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate {what}: {list(names)}")
    traced = replace(
        config, tracing=True, monitor=True, monitor_config=MonitorConfig(rules=())
    )
    cost = CostModel.from_config(config)
    cells: list[TaxonomyCell] = []
    monitor_taxonomies: dict[str, Taxonomy] = {}
    for workload in workloads:
        spec = WORKLOADS[workload]
        trace = spec.build().scaled(config.scale)
        for mode_name in mode_names:
            result = run_trace_mode(trace, mode_name, traced)
            events = result.run.trace
            if mode_name == reference_mode:
                ledger = build_ledger(events)
                wall = max((e.ts for e in events), default=0.0)
                taxonomy = classify_trace(
                    events,
                    cost,
                    window_seconds=(
                        wall / _WINDOWS_PER_RUN if wall > 0 else None
                    ),
                    ledger=ledger,
                )
                top_moved = tuple(
                    (history.name, history.bytes_moved)
                    for history in ledger.top_moved(3)
                )
                ping_pongs = len(ledger.ping_pongs())
                monitor_taxonomies[workload] = classify_monitor(
                    result.monitor, cost
                )
            else:
                taxonomy = classify_trace(events, cost)
                top_moved = ()
                ping_pongs = 0
            cells.append(
                TaxonomyCell(
                    workload=workload,
                    mode=mode_name,
                    seconds=result.seconds * config.scale,
                    taxonomy=taxonomy,
                    top_moved=top_moved,
                    ping_pongs=ping_pongs,
                )
            )
    return TaxonomyResult(
        cells=cells,
        monitor_taxonomies=monitor_taxonomies,
        workloads=tuple(workloads),
        modes=mode_names,
        reference_mode=reference_mode,
        config=config,
    )


def check_taxonomy(result: TaxonomyResult) -> list[str]:
    """The result contract; a non-empty list means the report is wrong.

    * every cell's class fractions sum to 1 and are individually sane;
    * >= 95% of every reference cell's time is attributed to a real class;
    * reference-mode verdicts match each workload's pinned expected class;
    * the monitor's rollups reach the same verdict as the full trace;
    * per-phase decompositions partition the run total exactly;
    * reference cells carry a per-window drill-down.
    """
    problems: list[str] = []
    for cell in result.cells:
        fractions = cell.taxonomy.decomposition.fractions()
        total = sum(fractions.values())
        if cell.taxonomy.decomposition.total > 0 and abs(total - 1.0) > 1e-9:
            problems.append(
                f"{cell.workload}/{cell.mode}: fractions sum to {total!r}"
            )
        if any(value < -1e-12 for value in fractions.values()):
            problems.append(
                f"{cell.workload}/{cell.mode}: negative class fraction"
            )
    for workload in result.workloads:
        reference = result.reference_cell(workload)
        expected = WORKLOADS[workload].expected
        if reference.verdict != expected:
            problems.append(
                f"{workload}: classified {reference.verdict}, "
                f"expected {expected} at {result.reference_mode}"
            )
        attributed = reference.taxonomy.decomposition.attributed_fraction
        if attributed < 0.95:
            problems.append(
                f"{workload}: only {attributed:.1%} of time attributed"
            )
        monitor = result.monitor_taxonomies.get(workload)
        if monitor is None:
            problems.append(f"{workload}: missing monitor taxonomy")
        elif monitor.verdict != reference.verdict:
            problems.append(
                f"{workload}: monitor rollups say {monitor.verdict}, "
                f"full trace says {reference.verdict}"
            )
        run_total = reference.taxonomy.decomposition.total
        phase_total = sum(
            d.total for d in reference.taxonomy.phases.values()
        )
        if abs(phase_total - run_total) > max(1e-9, 1e-9 * run_total):
            problems.append(
                f"{workload}: phases cover {phase_total!r} of {run_total!r}"
            )
        if not reference.taxonomy.windows:
            problems.append(f"{workload}: no per-window drill-down")
    return problems


def render(result: TaxonomyResult) -> str:
    """The text report ``python -m repro taxonomy`` prints."""
    scale = result.config.scale
    winners = result.winners()
    name_width = max(len(w) for w in result.workloads)
    lines = [
        f"Bottleneck taxonomy (reference {result.reference_mode}, "
        f"scale {scale})",
        "",
        f"{'workload':<{name_width}}  "
        + "  ".join(f"{mode:>12}" for mode in result.modes),
    ]
    for workload in result.workloads:
        row = [f"{workload:<{name_width}}"]
        for mode in result.modes:
            cell = result.cell(workload, mode)
            mark = "*" if mode == winners[workload] else " "
            row.append(f"{cell.seconds:>7.1f}s {cell.verdict[:3]}{mark}")
        lines.append("  ".join(row))
    lines.append("")
    lines.append(
        "verdict codes: com=compute ban=bandwidth lat=latency cap=capacity; "
        "* marks the winning mode"
    )
    for workload in result.workloads:
        reference = result.reference_cell(workload)
        monitor = result.monitor_taxonomies.get(workload)
        decomposition = reference.taxonomy.decomposition
        fractions = decomposition.fractions()
        lines.append("")
        lines.append(
            f"{workload}: {reference.verdict}-bound "
            f"(expected {WORKLOADS[workload].expected}; monitor rollups agree: "
            f"{'yes' if monitor and monitor.verdict == reference.verdict else 'NO'})"
        )
        lines.append(
            "  "
            + "  ".join(
                f"{name} {fractions[name]:.1%}"
                for name in ("compute", "bandwidth", "latency", "capacity")
            )
            + f"  unattributed {fractions['unattributed']:.1%}"
        )
        intensity = reference.taxonomy.movement_intensity
        lines.append(
            f"  moved/used {intensity:.3f} B/B, "
            f"{reference.taxonomy.copies} copies, "
            f"{reference.ping_pongs} ping-pongs"
            if intensity is not None
            else f"  {reference.taxonomy.copies} copies, "
            f"{reference.ping_pongs} ping-pongs"
        )
        for cause in reference.taxonomy.causes[:3]:
            lines.append(
                f"  cause {cause.kind}: {cause.copies} copies, "
                f"{cause.seconds * scale:.3f} s ({cause.klass})"
            )
        for name, nbytes in reference.top_moved:
            lines.append(f"  top moved {name}: {nbytes * scale / 1e9:.2f} GB")
    lines.append("")
    lines.append(f"digest {result.digest()}")
    return "\n".join(lines)

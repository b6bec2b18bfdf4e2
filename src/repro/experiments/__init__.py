"""Experiment harnesses: one module per table/figure of the paper.

Every harness returns plain result objects and renders a text report whose
rows mirror the corresponding figure's series, so running e.g.
``python -m repro fig2`` regenerates the Figure 2 comparison. Figures 2-6
are views of one evaluation matrix (:func:`~repro.experiments.common.run_matrix`,
``{model: {mode: ModeResult}}``): each module names the cells it reads and
derives its claims from that mapping. The shared machinery (mode
construction, scaling, device sizing) lives in
:mod:`repro.experiments.common`. See DESIGN.md §4 for the full index and
EXPERIMENTS.md for paper-vs-measured values.
"""

from repro.experiments.colo import ColoResult, TenantOutcome, run_colo
from repro.experiments.common import (
    ExperimentConfig,
    ModeResult,
    run_matrix,
    run_mode,
    run_modes,
)

__all__ = [
    "ColoResult",
    "ExperimentConfig",
    "ModeResult",
    "TenantOutcome",
    "run_colo",
    "run_matrix",
    "run_mode",
    "run_modes",
]

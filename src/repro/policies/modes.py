"""The six operating modes of Section IV.

==========  ========  ======================  ==============================
Mode        System    Policy toggles          Trace annotation
==========  ========  ======================  ==============================
``2LM:0``   2LM       (hardware cache)        GC-managed frees
``2LM:M``   2LM       (hardware cache)        eager ``retire``
``CA:0``    CA        no L, no P              GC-managed frees
``CA:L``    CA        L                       GC-managed frees
``CA:LM``   CA        L                       eager ``retire``
``CA:LMP``  CA        L, P                    eager ``retire``
==========  ========  ======================  ==============================

The *memory optimisation* (**M**) is an application-side change — retiring
arrays as soon as possible instead of leaving them to the garbage collector —
so it lives in the trace annotation (:mod:`repro.workloads.annotate`), not in
the policy object. ``mode(name)`` resolves the canonical configurations;
empty-set is written ``0`` in code and rendered ``∅`` in reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.policies.optimizing import OptimizingPolicy

__all__ = ["ModeConfig", "MODES", "mode"]


@dataclass(frozen=True)
class ModeConfig:
    """One evaluation mode: which system runs and which optimisations apply."""

    name: str
    system: str  # "ca" or "2lm"
    local_alloc: bool = False
    memopt: bool = False
    prefetch: bool = False

    @property
    def pretty(self) -> str:
        base, _, opts = self.name.partition(":")
        return f"{base}: {'∅' if opts == '0' else opts}"

    def make_policy(self, fast: str, slow: str) -> OptimizingPolicy:
        if self.system != "ca":
            raise ConfigurationError(f"mode {self.name!r} does not use a CA policy")
        return OptimizingPolicy(
            fast=fast,
            slow=slow,
            local_alloc=self.local_alloc,
            prefetch=self.prefetch,
        )


MODES: dict[str, ModeConfig] = {
    cfg.name: cfg
    for cfg in (
        ModeConfig("2LM:0", system="2lm"),
        ModeConfig("2LM:M", system="2lm", memopt=True),
        ModeConfig("CA:0", system="ca"),
        ModeConfig("CA:L", system="ca", local_alloc=True),
        ModeConfig("CA:LM", system="ca", local_alloc=True, memopt=True),
        ModeConfig(
            "CA:LMP", system="ca", local_alloc=True, memopt=True, prefetch=True
        ),
    )
}


def mode(name: str | ModeConfig) -> ModeConfig:
    """Resolve a mode by name (an already-resolved :class:`ModeConfig`
    passes through); accepts ``∅`` as a synonym for ``0``."""
    if isinstance(name, ModeConfig):
        return name
    canonical = name.replace("∅", "0").replace(" ", "").upper()
    try:
        return MODES[canonical]
    except KeyError:
        raise ConfigurationError(
            f"unknown mode {name!r}; known: {sorted(MODES)}"
        ) from None

"""Deterministic fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a declarative, seeded description of the faults a
chaos run injects. Determinism is the design center: faults fire on
*operation indices* (the Nth allocation, the Kth copy, ...) rather than wall
time, so the same plan against the same workload fires the same faults at
the same virtual times, every run, on every machine. The optional
``probability`` field draws from a ``random.Random`` seeded by the plan, so
even probabilistic plans replay exactly.

Every fault the injector fires is recorded as a :class:`FiredFault` stamped
with virtual time (:meth:`FiredFault.to_json` is its row in the chaos and
bisect reports). :func:`replay_plan`
turns a fired-fault record back into a plan that reproduces exactly those
faults — the trace-replay loop for debugging a failure found by a
probabilistic plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FiredFault",
    "FAULT_PLANS",
    "fault_plan",
    "replay_plan",
    "SITES",
]

# Injection sites, one per mechanism boundary the injector hooks:
ALLOC = "alloc"                  # allocator: the allocation fails outright
FRAGMENTATION = "fragmentation"  # allocator: sticky until defragmentation
COPY = "copy"                    # copy engine: attempts fail, engine retries
COPY_CORRUPT = "copy_corrupt"    # copy engine: silent corruption (real mode)
BANDWIDTH = "bandwidth"          # copy engine: transfers slowed by magnitude
POLICY = "policy"                # policy boundary: PolicyError at the hint
# Elastic events, consulted at workload step boundaries rather than inside
# the mechanism (they model operator actions, not component failures):
CHURN = "churn"                  # a tenant detaches mid-run (spec.op names it)
RESIZE = "resize"                # a device resizes; magnitude = capacity factor

SITES = frozenset(
    {ALLOC, FRAGMENTATION, COPY, COPY_CORRUPT, BANDWIDTH, POLICY,
     CHURN, RESIZE}
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: fire at ``site`` on matching operation indices.

    ``device`` filters by device name (allocation sites) or copy
    *destination* (copy sites); ``op`` filters policy-boundary operations
    (``place``, ``will_read``, ...). ``"*"`` matches anything. Eligible
    operations are counted per site; the spec fires on indices
    ``start, start+every, start+2*every, ...`` up to ``count`` fires.

    ``magnitude`` is site-specific: consecutive failed attempts per fire
    for ``copy``/``copy_corrupt``, the slowdown factor for ``bandwidth``,
    and the largest allocation (bytes) that still succeeds while a
    ``fragmentation`` fault is active.
    """

    site: str
    device: str = "*"
    op: str = "*"
    start: int = 0
    every: int = 1
    count: int | None = 1
    magnitude: float = 1.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; know {sorted(SITES)}"
            )
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")
        if self.every < 1:
            raise ConfigurationError(f"every must be >= 1, got {self.every}")
        if self.count is not None and self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in (0, 1], got {self.probability}"
            )

    def matches_index(self, index: int) -> bool:
        """Whether this spec targets eligible-operation ``index`` (0-based)."""
        if index < self.start:
            return False
        return (index - self.start) % self.every == 0


@dataclass(frozen=True)
class FiredFault:
    """One fault the injector actually fired, stamped with virtual time."""

    ts: float
    site: str
    device: str
    op: str
    index: int  # per-site eligible-operation index the fault fired on
    detail: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "ts": self.ts,
            "site": self.site,
            "device": self.device,
            "op": self.op,
            "index": self.index,
        }
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded bundle of :class:`FaultSpec` rules."""

    name: str
    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def for_site(self, site: str) -> tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.site == site)


def replay_plan(
    name: str, fired: Iterable[FiredFault], *, seed: int = 0
) -> FaultPlan:
    """A plan that re-fires exactly the given faults (by site + index).

    Probabilistic or windowed rules collapse to pinned single-shot specs, so
    a failure found by a fuzzing plan replays deterministically.
    """
    specs = []
    for fault in fired:
        magnitude = float(fault.detail.get("magnitude", 1.0))
        specs.append(
            FaultSpec(
                site=fault.site,
                device=fault.device,
                op=fault.op,
                start=fault.index,
                every=1,
                count=1,
                magnitude=magnitude,
                probability=1.0,
            )
        )
    return FaultPlan(
        name=name, specs=tuple(specs), seed=seed,
        description="replay of a recorded fault trace",
    )


# -- built-in named plans (the chaos suite's fault classes) --------------------

FAULT_PLANS: dict[str, FaultPlan] = {
    plan.name: plan
    for plan in (
        FaultPlan(
            "alloc-storm",
            specs=(
                FaultSpec(site=ALLOC, device="*", start=4, every=5, count=6),
            ),
            description="every 5th allocation fails once from the 5th on",
        ),
        FaultPlan(
            "dram-squeeze",
            specs=(
                FaultSpec(site=ALLOC, device="DRAM", start=2, every=2,
                          count=12),
            ),
            description="half of all DRAM allocations fail (policy must "
                        "degrade to slow-memory placement)",
        ),
        FaultPlan(
            "fragmentation",
            specs=(
                FaultSpec(site=FRAGMENTATION, device="*", start=6, count=2,
                          magnitude=4096),
            ),
            description="heap behaves fragmented (allocations over 4 KiB "
                        "fail) until the next defragmentation pass",
        ),
        FaultPlan(
            "copy-flaky",
            specs=(
                FaultSpec(site=COPY, device="*", start=1, every=3, count=8),
            ),
            description="every 3rd copy fails once; the engine's "
                        "retry-with-verification absorbs it",
        ),
        FaultPlan(
            "copy-corrupt",
            specs=(
                FaultSpec(site=COPY_CORRUPT, device="*", start=1, every=4,
                          count=6),
            ),
            description="copies silently corrupt one byte; verification "
                        "must catch and retry (real-backed runs)",
        ),
        FaultPlan(
            "slow-bus",
            specs=(
                FaultSpec(site=BANDWIDTH, device="*", start=0, every=1,
                          count=None, magnitude=4.0),
            ),
            description="all transfers run at quarter bandwidth "
                        "(degraded-link model); results must be unchanged",
        ),
        FaultPlan(
            "policy-bug",
            specs=(
                FaultSpec(site=POLICY, op="*", start=5, every=4, count=8),
            ),
            description="the policy throws PolicyError on recurring hints; "
                        "the watchdog must quarantine and fall back",
        ),
        FaultPlan(
            "copy-exhaust",
            specs=(
                FaultSpec(site=COPY, device="*", start=2, every=1, count=1,
                          magnitude=99),
            ),
            description="one copy fails past the retry budget; the run "
                        "must abort with a typed CopyError, never corrupt",
        ),
        FaultPlan(
            "elastic-ops",
            specs=(
                # Step boundaries count as eligible operations: detach the
                # second tenant a third of the way through, squeeze DRAM to
                # half capacity shortly after, and restore it near the end.
                FaultSpec(site=CHURN, op="t1", start=6, count=1),
                FaultSpec(site=RESIZE, device="DRAM", start=8, count=1,
                          magnitude=0.5),
                FaultSpec(site=RESIZE, device="DRAM", start=14, count=1,
                          magnitude=2.0),
            ),
            description="tenant churn plus online DRAM shrink/grow; the "
                        "recovery ladder must migrate survivors and every "
                        "quota must refund exactly once",
        ),
        FaultPlan(
            "bisect-demo",
            specs=(
                # Benign noise: retried copies and failed DRAM allocations
                # the ladder absorbs...
                FaultSpec(site=COPY, device="*", start=1, every=4, count=4),
                FaultSpec(site=ALLOC, device="DRAM", start=3, every=6,
                          count=3),
                # ...and one fatal copy that exhausts the retry budget. The
                # bisector must isolate a window containing this event.
                FaultSpec(site=COPY, device="*", start=10, every=1, count=1,
                          magnitude=99),
            ),
            description="benign fault noise plus one fatal copy; "
                        "`repro chaos --bisect` narrows the failure to a "
                        "handful of events",
        ),
        FaultPlan(
            "kitchen-sink",
            specs=(
                FaultSpec(site=ALLOC, device="*", start=3, every=7, count=4),
                FaultSpec(site=COPY, device="*", start=2, every=5, count=4),
                FaultSpec(site=BANDWIDTH, device="*", start=0, every=2,
                          count=None, magnitude=2.0),
                FaultSpec(site=POLICY, op="*", start=9, every=6, count=4),
            ),
            seed=1234,
            description="allocation, copy, bandwidth, and policy faults "
                        "together",
        ),
    )
}


def fault_plan(name: str) -> FaultPlan:
    """Look up a built-in plan by name."""
    try:
        return FAULT_PLANS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault plan {name!r}; know {sorted(FAULT_PLANS)}"
        ) from None

"""The chaos harness: run workloads under a fault plan, check the contract.

The robustness contract (ISSUE acceptance criterion, docs/robustness.md):
under any fault plan a run must either

* **complete correctly** — array contents bit-identical to a fault-free run
  of the same scripted workload, with a clean :meth:`DataManager.check`
  invariant sweep (and, when a policy fault was injected, completion via the
  watchdog's quarantine-and-fallback rather than a crash), or
* **abort loudly** — with a typed :class:`~repro.errors.CachedArraysError`
  (never a silent wrong answer, never corrupted bookkeeping).

Two scenarios exercise the two halves of the runtime:

* ``session-real`` — a tiny *real-backed* session (DRAM squeezed far below
  the working set so eviction traffic is constant) driven by a scripted,
  seeded workload. Array payloads are real bytes, so completion is checked
  by SHA-256 digest against a fault-free baseline run.
* ``trace-virtual`` — the trace :class:`~repro.runtime.executor.Executor`
  over a synthetic streaming workload on virtual devices, exercising the
  executor's OOM escalation ladder, deferred GC, and iteration housekeeping
  under the same fault plan (timing-only: correctness here means completion
  plus clean sweeps).

``python -m repro chaos --plan <name>`` runs these and renders the report.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.session import Session, SessionConfig, SharedRuntime
from repro.errors import CachedArraysError, OutOfMemoryError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CHURN,
    RESIZE,
    FaultPlan,
    FiredFault,
    fault_plan,
    replay_plan,
)
from repro.faults.policy import FaultyPolicy
from repro.policies.optimizing import OptimizingPolicy
from repro.policies.watchdog import PolicyWatchdog
from repro.runtime.executor import CachedArraysAdapter, Executor
from repro.runtime.gc import GcConfig
from repro.runtime.kernel import ExecutionParams
from repro.runtime.recovery import recover_allocation, session_hooks
from repro.telemetry.monitor import MonitorConfig
from repro.units import KiB, MiB
from repro.workloads.annotate import annotate
from repro.workloads.synthetic import streaming_trace

__all__ = [
    "ScenarioOutcome",
    "ChaosReport",
    "BisectResult",
    "ScriptedWorkload",
    "bisect_plan",
    "run_chaos",
    "run_scenario",
]

# Scripted-workload geometry: DRAM far below the live working set.
REAL_DRAM = 256 * KiB
REAL_NVRAM = 4 * MiB
WORKLOAD_STEPS = 18
# Element counts cycle through these shapes (float32: 16-64 KiB payloads).
SHAPE_CYCLE = (4096, 8192, 12288, 16384)


@dataclass
class ScenarioOutcome:
    """What happened to one scenario under one fault plan."""

    scenario: str
    completed: bool
    error: str = ""            # exception type name when the run aborted
    error_detail: str = ""
    typed_abort: bool = False  # abort was a CachedArraysError subclass
    digests_match: bool | None = None  # None: no payloads to compare
    invariants_clean: bool = False
    faults_fired: int = 0
    recoveries: dict[str, int] = field(default_factory=dict)
    copy_retries: int = 0
    strikes: int = 0
    quarantined: bool = False
    # Elastic-scenario extras: tenants detached mid-run, resizes applied,
    # and whether every departed tenant's quota refunded exactly (None when
    # the scenario has no churn).
    detached: int = 0
    resized: int = 0
    refund_ok: bool | None = None
    # Flight-recorder dump written by the runtime monitor during this run
    # (empty when nothing escalated or no dump directory was configured):
    # a failing scenario ships its last-N-events black box.
    flight_record: str = ""

    @property
    def ok(self) -> bool:
        """The robustness contract for one run (see module docstring)."""
        if self.completed:
            return (
                self.invariants_clean
                and self.digests_match is not False
                and self.refund_ok is not False
            )
        return self.typed_abort

    def describe(self) -> str:
        if self.completed:
            verdict = "completed"
            checks = [
                "invariants clean" if self.invariants_clean else
                "INVARIANT SWEEP FAILED",
            ]
            if self.digests_match is True:
                checks.append("bit-identical to fault-free run")
            elif self.digests_match is False:
                checks.append("PAYLOAD MISMATCH")
        else:
            verdict = f"aborted with {self.error}"
            checks = ["typed" if self.typed_abort else "UNTYPED CRASH"]
        parts = [
            f"{self.faults_fired} faults fired",
            f"{self.copy_retries} copy retries",
        ]
        if self.recoveries:
            steps = ", ".join(
                f"{step} x{count}" for step, count in sorted(self.recoveries.items())
            )
            parts.append(f"recovered via {steps}")
        if self.strikes:
            parts.append(
                f"{self.strikes} policy strikes"
                + (" -> quarantined" if self.quarantined else "")
            )
        if self.detached or self.resized:
            parts.append(
                f"{self.detached} detaches / {self.resized} resizes"
            )
            if self.refund_ok is False:
                parts.append("QUOTA REFUND MISMATCH")
        status = "ok " if self.ok else "FAIL"
        line = (
            f"  [{status}] {self.scenario}: {verdict} "
            f"({'; '.join(checks)}; {'; '.join(parts)})"
        )
        if self.flight_record and (not self.completed or not self.ok):
            # Any abort — contract-honouring or not — ships its black box.
            line += f"\n         flight record: {self.flight_record}"
        return line


@dataclass
class ChaosReport:
    """All scenario outcomes for one fault plan."""

    plan: FaultPlan
    outcomes: list[ScenarioOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def render(self) -> str:
        head = f"chaos plan {self.plan.name!r}: {self.plan.description}"
        return "\n".join([head] + [o.describe() for o in self.outcomes])


# -- scenario A: real-backed session, scripted workload ------------------------


def _platform(
    *,
    real: bool = True,
    dram: int = REAL_DRAM,
    nvram: int = REAL_NVRAM,
    dump_dir: str | None = None,
) -> SessionConfig:
    """The chaos platform: the scripted workload's real-backed geometry
    unless told otherwise, fully traced."""
    return SessionConfig(
        dram=dram,
        nvram=nvram,
        real=real,
        tracing=True,
        # The runtime monitor rides along for free counting (the outcome's
        # recovery/strike tallies) and, when a dump directory is given,
        # flight-records every escalation.
        monitor=True,
        monitor_config=MonitorConfig(dump_dir=dump_dir),
    )


def _build_session(
    plan: FaultPlan | None, **platform
) -> tuple[Session, FaultInjector | None]:
    injector = FaultInjector(plan) if plan is not None else None
    policy = OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True)
    if injector is not None:
        policy = PolicyWatchdog(FaultyPolicy(policy, injector))
    session = Session(_platform(**platform), policy=policy, injector=injector)
    return session, injector


def _guarded_empty(session: Session, elements: int, name: str):
    """Create an array, climbing the session-level ladder on pressure."""

    def attempt():
        return session.empty((elements,), np.float32, name=name)

    try:
        return attempt()
    except OutOfMemoryError as error:
        return recover_allocation(
            attempt,
            error,
            session_hooks(session),
            tracer=session.tracer,
            metrics=session.metrics,
        )


def _payload(step: int, elements: int) -> np.ndarray:
    """The (seeded, per-step) contents of array ``step`` — identical across
    baseline and fault runs by construction."""
    rng = np.random.default_rng(1000 + step)
    return rng.random(elements, dtype=np.float32)


class ScriptedWorkload:
    """The scripted allocate/write/read/archive/retire sequence, stepwise.

    Control flow depends only on the step index — never on placement, timing,
    or recovery — so any two runs produce the same logical array set and the
    final digests are comparable bit-for-bit.

    Position (``step``) and the live set are plain data, which makes the
    workload **picklable mid-run**: the chaos bisector snapshots
    ``(session, workload)`` at every step boundary and restores the pair to
    re-run the tail under a different fault schedule.
    """

    def __init__(self) -> None:
        self.step = 0
        self.live: dict[int, object] = {}

    def run_step(self, session: Session) -> None:
        step = self.step
        elements = SHAPE_CYCLE[step % len(SHAPE_CYCLE)]
        array = _guarded_empty(session, elements, f"a{step}")
        array.write(_payload(step, elements))
        self.live[step] = array
        if step >= 2 and step % 3 == 0:
            # Revisit two recent arrays: forces promote/evict churn.
            for back in (1, 2):
                if step - back in self.live:
                    self.live[step - back].read()
        if step % 4 == 1 and step - 4 in self.live:
            self.live[step - 4].archive()
        if step % 5 == 4 and step - 5 in self.live:
            self.live.pop(step - 5).retire()
        self.step = step + 1

    def digests(self) -> dict[str, str]:
        """``{name: sha256}`` of every array still live."""
        out: dict[str, str] = {}
        for step in sorted(self.live):
            data = self.live[step].read()
            out[f"a{step}"] = hashlib.sha256(data.tobytes()).hexdigest()
        return out

    def run(self, session: Session) -> dict[str, str]:
        """Run (or resume) to the end; returns the final digests."""
        while self.step < WORKLOAD_STEPS:
            self.run_step(session)
        return self.digests()


def _scripted_workload(session: Session) -> dict[str, str]:
    return ScriptedWorkload().run(session)


@contextmanager
def _guarded(outcome: ScenarioOutcome):
    """The contract's guard around a scenario body: leaving the block
    normally marks the outcome completed; a raise is recorded as a typed
    abort (a :class:`CachedArraysError`) or an untyped crash, not re-raised."""
    try:
        yield
    except CachedArraysError as error:
        outcome.error = type(error).__name__
        outcome.error_detail = str(error)
        outcome.typed_abort = True
    except Exception as error:  # noqa: BLE001 - the contract check itself
        outcome.error = type(error).__name__
        outcome.error_detail = str(error)
    else:
        outcome.completed = True


def _sweep(sessions: list[Session]) -> bool:
    try:
        sessions[0].manager.check()
        for session in sessions:
            check = getattr(session.policy, "check_invariant", None)
            if check is not None and not session.closed:
                check()
    except Exception:
        return False
    return True


def _close_out(
    outcome: ScenarioOutcome,
    sessions: list[Session],
    injector: FaultInjector | None,
) -> None:
    """Everything a scenario reports once its guarded body is over, for the
    tenant ``sessions`` of one runtime: the abort's black box, the invariant
    sweep, and the fault / recovery / watchdog tallies.

    The monitor folded every event as it was emitted, so the tallies are a
    constant-time read of its cumulative totals — no scan over the trace.
    """
    monitor = sessions[0].monitor
    assert monitor is not None  # both session builders here attach one
    if outcome.error:
        # Capture the black box at the abort, whatever escalated first.
        monitor.record_escalation(f"abort:{outcome.error}")
    monitor.finish()
    outcome.invariants_clean = _sweep(sessions)
    outcome.faults_fired = len(injector.fired) if injector else 0
    outcome.recoveries = dict(monitor.recoveries_by_step)
    outcome.copy_retries = monitor.totals["copy_retries"]
    outcome.strikes = monitor.totals["strikes"]
    outcome.quarantined |= monitor.totals["quarantines"] > 0
    for session in sessions:
        if isinstance(session.policy, PolicyWatchdog):
            outcome.quarantined |= session.policy.quarantined
    if monitor.dumps:
        outcome.flight_record = monitor.dumps[-1]


def _run_real_scenario(
    plan: FaultPlan, *, dump_dir: str | None = None
) -> ScenarioOutcome:
    outcome = ScenarioOutcome(scenario="session-real", completed=False)
    baseline_session, _ = _build_session(None)
    with baseline_session:
        baseline = _scripted_workload(baseline_session)
    session, injector = _build_session(plan, dump_dir=dump_dir)
    with session:
        with _guarded(outcome):
            outcome.digests_match = _scripted_workload(session) == baseline
        _close_out(outcome, [session], injector)
    return outcome


# -- scenario B: virtual trace executor ----------------------------------------


def _run_virtual_scenario(
    plan: FaultPlan, *, dump_dir: str | None = None
) -> ScenarioOutcome:
    outcome = ScenarioOutcome(scenario="trace-virtual", completed=False)
    session, injector = _build_session(
        plan, real=False, dram=2 * MiB, nvram=32 * MiB, dump_dir=dump_dir
    )
    executor = Executor(
        CachedArraysAdapter(session, ExecutionParams()),
        gc_config=GcConfig(trigger_bytes=8 * MiB),
    )
    trace = annotate(
        streaming_trace(stages=24, tensor_bytes=512 * KiB), memopt=False
    )
    with _guarded(outcome):
        executor.run(trace, iterations=2)
    _close_out(outcome, [session], injector)
    return outcome


# -- scenario C: multi-tenant shared runtime under churn + resize --------------

ELASTIC_TENANTS = ("t0", "t1")


def _expected_digests(workload: ScriptedWorkload) -> dict[str, str]:
    """What the live arrays must contain: the seeded payloads, unchanged by
    any amount of eviction, migration, or resize traffic."""
    out: dict[str, str] = {}
    for step in sorted(workload.live):
        elements = SHAPE_CYCLE[step % len(SHAPE_CYCLE)]
        out[f"a{step}"] = hashlib.sha256(
            _payload(step, elements).tobytes()
        ).hexdigest()
    return out


def _run_elastic_scenario(
    plan: FaultPlan, *, dump_dir: str | None = None
) -> ScenarioOutcome:
    """Two tenants on one shared runtime; the plan's churn/resize events
    fire at step boundaries. Checks: surviving payloads bit-identical to
    their seeded contents, detached quotas refunded exactly once (no rows,
    no owned blocks left), clean invariant sweep after every resize."""
    outcome = ScenarioOutcome(scenario="session-elastic", completed=False)
    injector = FaultInjector(plan)
    runtime = SharedRuntime(_platform(dump_dir=dump_dir), injector=injector)
    sessions: dict[str, Session] = {}
    workloads: dict[str, ScriptedWorkload] = {}
    for tenant in ELASTIC_TENANTS:
        policy = PolicyWatchdog(
            OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True)
        )
        sessions[tenant] = runtime.session(
            policy, tenant=tenant, dram_quota=REAL_DRAM // 2
        )
        workloads[tenant] = ScriptedWorkload()
    detach_stats: dict[str, dict[str, int]] = {}
    with _guarded(outcome):
        for step in range(WORKLOAD_STEPS):
            for kind, subject, factor in injector.elastic_events(step):
                if kind == "churn":
                    tenant = subject if subject != "*" else ELASTIC_TENANTS[-1]
                    if tenant in workloads:
                        detach_stats[tenant] = runtime.detach(tenant)
                        workloads.pop(tenant)
                        outcome.detached += 1
                else:
                    heap = runtime.heap(subject)
                    new_bytes = max(64 * KiB, int(heap.capacity * factor))
                    runtime.resize(subject, new_bytes)
                    outcome.resized += 1
            for tenant in list(workloads):
                runtime.activate(tenant)
                workloads[tenant].run_step(sessions[tenant])
        digests_ok = True
        for tenant, workload in workloads.items():
            runtime.activate(tenant)
            digests_ok &= workload.digests() == _expected_digests(workload)
        outcome.digests_match = digests_ok
    if outcome.detached:
        refund_ok = True
        for tenant, stats in detach_stats.items():
            refund_ok &= stats["quota"] > 0
            refund_ok &= not any(
                owner == tenant for owner, _ in runtime.manager.tenant_quotas()
            )
            refund_ok &= not runtime.manager.tenant_objects(tenant)
        outcome.refund_ok = refund_ok
    _close_out(outcome, list(sessions.values()), injector)
    runtime.close()
    return outcome


# -- bisection: narrow a failing plan to the smallest event window -------------


@dataclass
class BisectResult:
    """Outcome of ``repro chaos --bisect``: the narrowed fault window."""

    plan: FaultPlan
    error: str                 # exception type of the reproduced failure
    failing_step: int          # scripted-workload step the failure hit
    fired_total: int           # faults fired in the full failing run
    window: list[FiredFault] = field(default_factory=list)
    probes: int = 0            # probe runs spent narrowing

    @property
    def ok(self) -> bool:
        return bool(self.error) and bool(self.window)

    def render(self) -> str:
        if not self.error:
            return (
                f"bisect: plan {self.plan.name!r} completed cleanly — "
                "nothing to narrow"
            )
        lines = [
            f"bisect: plan {self.plan.name!r} fails at step "
            f"{self.failing_step} with {self.error}",
            f"  {self.fired_total} faults fired; window narrowed to "
            f"{len(self.window)} event(s) in {self.probes} probe runs",
        ]
        if self.window:
            lines.append(f"  first event: {_describe_fault(self.window[0])}")
            lines.append(f"  last event:  {_describe_fault(self.window[-1])}")
        else:
            lines.append(
                "  no fault window: the workload fails without any faults"
            )
        return "\n".join(lines)


def _describe_fault(fault: FiredFault) -> str:
    bits = [f"{fault.site}[{fault.index}]"]
    if fault.device != "*":
        bits.append(f"device={fault.device}")
    if fault.op != "*":
        bits.append(f"op={fault.op}")
    bits.append(f"t={fault.ts:.6g}")
    magnitude = fault.detail.get("magnitude")
    if magnitude is not None:
        bits.append(f"magnitude={magnitude:g}")
    return " ".join(bits)


def bisect_plan(plan_or_name: FaultPlan | str) -> BisectResult:
    """Binary-search a failing plan down to the narrowest fault window.

    Three phases over the ``session-real`` scripted workload:

    1. **Record** — run the plan once, snapshotting ``(session, workload)``
       at every step boundary (the elastic snapshot machinery: pickle
       preserves heaps, object table, clock, injector cursors).
    2. **Tail search** — binary-search the *latest* snapshot that still
       fails when restored with the injector disarmed: faults fired after
       it are unnecessary, so the window's end is the last fault before it.
    3. **Head search** — binary-search the *largest* prefix of the
       remaining faults that can be dropped while a fresh replay
       (:func:`~repro.faults.plan.replay_plan`) of the rest still fails.

    What survives is the minimal contiguous window of fired faults; the
    result names its first and last event.
    """
    plan = (
        fault_plan(plan_or_name)
        if isinstance(plan_or_name, str)
        else plan_or_name
    )
    session, injector = _build_session(plan)
    assert injector is not None
    snapshots: list[tuple[bytes, int]] = []
    error = ""
    with session:
        workload = ScriptedWorkload()
        try:
            while workload.step < WORKLOAD_STEPS:
                snapshots.append((
                    pickle.dumps(
                        (session, workload), pickle.HIGHEST_PROTOCOL
                    ),
                    len(injector.fired),
                ))
                workload.run_step(session)
            snapshots.append((
                pickle.dumps((session, workload), pickle.HIGHEST_PROTOCOL),
                len(injector.fired),
            ))
            workload.digests()
        except CachedArraysError as err:
            error = type(err).__name__
        fired_full = list(injector.fired)
        failing_step = workload.step
    if not error:
        return BisectResult(
            plan=plan, error="", failing_step=-1,
            fired_total=len(fired_full),
        )
    result = BisectResult(
        plan=plan, error=error, failing_step=failing_step,
        fired_total=len(fired_full),
    )

    def tail_fails(blob: bytes) -> bool:
        """Restore a snapshot, disarm the injector, run to completion."""
        result.probes += 1
        restored_session, restored_workload = pickle.loads(blob)
        restored_session.injector.disarm()
        try:
            restored_workload.run(restored_session)
        except CachedArraysError:
            return True
        finally:
            restored_session.close()
        return False

    # Tail: find the earliest snapshot that fails with no further faults.
    # Everything the injector fired after it is noise.
    if snapshots and tail_fails(snapshots[-1][0]):
        lo, hi = 0, len(snapshots) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if tail_fails(snapshots[mid][0]):
                hi = mid
            else:
                lo = mid + 1
        end_count = snapshots[lo][1]
    else:
        # The failure needs the faults of the failing step itself.
        end_count = len(fired_full)
    candidates = fired_full[:end_count]
    if not candidates:
        return result  # fails with zero faults: the plan is not the cause

    def head_fails(drop: int) -> bool:
        """Replay only ``candidates[drop:]`` against a fresh run."""
        result.probes += 1
        subset = candidates[drop:]
        replay = replay_plan(
            f"{plan.name}-bisect", subset, seed=plan.seed
        )
        probe_session, _ = _build_session(replay)
        with probe_session:
            try:
                ScriptedWorkload().run(probe_session)
            except CachedArraysError:
                return True
        return False

    # Head: drop the longest benign prefix that still reproduces.
    if head_fails(0):
        lo, hi = 0, len(candidates) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if head_fails(mid):
                lo = mid
            else:
                hi = mid - 1
        drop = lo
    else:  # pragma: no cover - replay nondeterminism safety net
        drop = 0
    result.window = candidates[drop:]
    return result


# -- entry points --------------------------------------------------------------


def run_scenario(
    plan: FaultPlan, scenario: str, *, dump_dir: str | None = None
) -> ScenarioOutcome:
    """Run one named scenario (``session-real`` or ``trace-virtual``).

    ``dump_dir`` enables flight-recorder dumps: any fault, watchdog strike,
    ladder escalation, or abort writes its last-N-events black box there and
    the outcome carries the path.
    """
    if scenario == "session-real":
        return _run_real_scenario(plan, dump_dir=dump_dir)
    if scenario == "trace-virtual":
        return _run_virtual_scenario(plan, dump_dir=dump_dir)
    if scenario == "session-elastic":
        return _run_elastic_scenario(plan, dump_dir=dump_dir)
    raise ValueError(f"unknown chaos scenario {scenario!r}")


def run_chaos(
    plan_or_name: FaultPlan | str, *, dump_dir: str | None = None
) -> ChaosReport:
    """Run every scenario under one fault plan and collect the report.

    Scenario flight dumps land in per-scenario subdirectories of
    ``dump_dir`` (so two scenarios never overwrite each other's black box).
    """
    plan = (
        fault_plan(plan_or_name)
        if isinstance(plan_or_name, str)
        else plan_or_name
    )

    def scenario_dir(scenario: str) -> str | None:
        if dump_dir is None:
            return None
        return os.path.join(dump_dir, plan.name, scenario)

    scenarios = []
    elastic_specs = plan.for_site(CHURN) + plan.for_site(RESIZE)
    if len(elastic_specs) < len(plan.specs):
        # Mechanism-fault specs exist: run the classic scenarios. A purely
        # elastic plan skips them — churn/resize events only fire at the
        # elastic scenario's step boundaries, and a scenario that can fire
        # nothing proves nothing.
        scenarios += ["session-real", "trace-virtual"]
    if elastic_specs:
        # Elastic plans get the multi-tenant scenario: churn and resize
        # only mean something with tenants to detach and heaps to migrate.
        scenarios.append("session-elastic")
    return ChaosReport(
        plan=plan,
        outcomes=[
            run_scenario(plan, scenario, dump_dir=scenario_dir(scenario))
            for scenario in scenarios
        ],
    )

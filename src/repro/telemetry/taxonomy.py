"""DAMOV-style movement-bottleneck taxonomy over a run's telemetry.

Folds a run's event stream (or a runtime monitor's rollups) into an
exact decomposition of wall time into four bottleneck classes:

* **compute** — kernel flop time (the part of ``compute`` past launch);
* **bandwidth** — byte-volume-proportional memory time: exposed kernel
  memory service plus the size-proportional share of demand copies;
* **latency** — transfer-count/fixed-overhead time: kernel launch, the
  per-operand setup share of exposed memory time, and the fixed share of
  demand copies (DAMOV's "latency-bound", KLOC's per-object overheads);
* **capacity** — eviction/recovery pressure: every copy rooted in an
  eviction-class cause, GC pauses, and the matching share of stalls.

The algebra is exact by construction. Kernel seconds split as
``seconds = (compute - launch) + launch + exposed`` where ``exposed =
seconds - compute`` is never negative (the executor's overlap rule is
``total = max(compute, dram) + nvram``); exposed memory time splits
bandwidth-vs-latency by the ratio of per-operand setup (``fixed``, carried
on ``kernel_end``) to total memory service. A copy's fixed cost is known
exactly from the simulator's cost model — ``setup(src) + setup(dst) +
per_transfer_overhead`` — so its remainder is pure byte volume. The wall
residual not covered by kernels, stalls, or GC is movement wall time and is
distributed over the copy classes proportionally (synchronous copies cover
it exactly; asynchronous copies hide under it); stalls are waits on copies
and follow the same mix. The only honest ``unattributed`` time is residual
wall with *zero* observed copies to carry it.

``classify_trace`` consumes a full traced event list and also yields
per-kernel-phase and per-window drill-downs; ``classify_monitor`` consumes
a :class:`~repro.telemetry.monitor.RuntimeMonitor`, whose bounded state is
all a monitored run that keeps no events leaves, and reaches the same
verdicts from windowed rollups alone, approximating each copy's fixed cost
as one DRAM<->NVRAM pair — exact in the two-device system this repo
models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.telemetry.monitor import RuntimeMonitor, cause_kind
from repro.telemetry.trace import COPY_START, GC, KERNEL_END, STALL, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.common import ExperimentConfig
    from repro.telemetry.ledger import ObjectLedger

__all__ = [
    "CAPACITY_KINDS",
    "CLASSES",
    "CauseRollup",
    "CostModel",
    "Decomposition",
    "Taxonomy",
    "WindowSlice",
    "classify_monitor",
    "classify_trace",
    "movement_intensity",
]

CLASSES = ("compute", "bandwidth", "latency", "capacity")

# Copy root-cause kinds (see telemetry.monitor.cause_kind) that mean the
# system is shuffling bytes to *make room* rather than to serve a kernel:
# eviction victims, GC writebacks, recovery-ladder migrations, defrag
# compaction, iteration-end drains, and capacity reconfiguration.
CAPACITY_KINDS = frozenset(
    {
        "evict",
        "gc",
        "defrag",
        "iter_end",
        "oom_retry",
        "pressure",
        "recover",
        "recovery",
        "resize",
        "restore",
    }
)


@dataclass(frozen=True)
class CostModel:
    """The simulator's fixed-cost constants, for exact attribution.

    Mirrors what the runtime charges: ``launch_overhead`` per kernel,
    ``per_transfer_overhead`` per copy, and ``setup_latency`` per operand
    touch / copy endpoint keyed by device name. Build from the experiment
    config with :meth:`from_config` so the scale-division matches the run.
    """

    launch_overhead: float
    per_transfer_overhead: float
    setup_latency: Mapping[str, float]

    @classmethod
    def from_config(cls, config: "ExperimentConfig") -> "CostModel":
        dram = config.build_dram()
        nvram = config.build_nvram()
        return cls(
            launch_overhead=config.scaled_params().launch_overhead,
            per_transfer_overhead=config.session_config().copy_overhead,
            setup_latency={
                dram.name: dram.bandwidth.setup_latency,
                nvram.name: nvram.bandwidth.setup_latency,
            },
        )

    def copy_fixed(self, src: str, dst: str, nbytes: int) -> float:
        """Exact fixed cost of one copy between named devices."""
        if nbytes <= 0:
            return 0.0
        return (
            self.setup_latency.get(src, 0.0)
            + self.setup_latency.get(dst, 0.0)
            + self.per_transfer_overhead
        )

    @property
    def default_copy_fixed(self) -> float:
        """Fixed cost assuming one endpoint per known device.

        The monitor's rollups record copy counts, not endpoints; with exactly
        two devices every cross-tier copy touches both, so this is exact
        there (and a documented approximation for same-device moves).
        """
        return sum(self.setup_latency.values()) + self.per_transfer_overhead


@dataclass(frozen=True)
class Decomposition:
    """Seconds per bottleneck class; fractions sum to 1 by construction."""

    compute: float = 0.0
    bandwidth: float = 0.0
    latency: float = 0.0
    capacity: float = 0.0
    unattributed: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.compute
            + self.bandwidth
            + self.latency
            + self.capacity
            + self.unattributed
        )

    @property
    def attributed_fraction(self) -> float:
        total = self.total
        if total <= 0:
            return 1.0
        return 1.0 - self.unattributed / total

    def fractions(self) -> dict[str, float]:
        total = self.total
        if total <= 0:
            return {name: 0.0 for name in (*CLASSES, "unattributed")}
        return {
            "compute": self.compute / total,
            "bandwidth": self.bandwidth / total,
            "latency": self.latency / total,
            "capacity": self.capacity / total,
            "unattributed": self.unattributed / total,
        }

    @property
    def dominant(self) -> str:
        """The bottleneck verdict: largest attributed class (stable ties)."""
        best = CLASSES[0]
        best_seconds = self.compute
        for name, seconds in (
            ("bandwidth", self.bandwidth),
            ("latency", self.latency),
            ("capacity", self.capacity),
        ):
            if seconds > best_seconds:
                best, best_seconds = name, seconds
        return best

    def to_json(self) -> dict[str, Any]:
        return {
            "seconds": {
                "compute": self.compute,
                "bandwidth": self.bandwidth,
                "latency": self.latency,
                "capacity": self.capacity,
                "unattributed": self.unattributed,
            },
            "fractions": self.fractions(),
            "dominant": self.dominant,
            "attributed_fraction": self.attributed_fraction,
        }


@dataclass(frozen=True)
class WindowSlice:
    """One fixed virtual-time interval's decomposition (drill-down)."""

    index: int
    start: float
    decomposition: Decomposition

    def to_json(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            **self.decomposition.to_json(),
        }


@dataclass(frozen=True)
class CauseRollup:
    """Copy traffic for one root-cause kind, with its assigned class."""

    kind: str
    klass: str
    copies: int
    seconds: float
    nbytes: int

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "class": self.klass,
            "copies": self.copies,
            "seconds": self.seconds,
            "nbytes": self.nbytes,
        }


class _Bucket:
    """Raw per-scope accumulator, finalized into a Decomposition."""

    __slots__ = (
        "kernel_compute", "kernel_bandwidth", "kernel_latency",
        "copy_capacity", "copy_latency", "copy_bandwidth",
        "stall_seconds", "gc_seconds",
    )

    def __init__(self) -> None:
        self.kernel_compute = 0.0
        self.kernel_bandwidth = 0.0
        self.kernel_latency = 0.0
        self.copy_capacity = 0.0
        self.copy_latency = 0.0
        self.copy_bandwidth = 0.0
        self.stall_seconds = 0.0
        self.gc_seconds = 0.0

    def add_kernel(self, seconds: float, compute: float, memory: float,
                   fixed: float, launch_overhead: float) -> None:
        launch = min(launch_overhead, compute)
        exposed = max(0.0, seconds - compute)
        share = min(1.0, fixed / memory) if memory > 0.0 else 0.0
        self.kernel_compute += compute - launch
        self.kernel_latency += launch + exposed * share
        self.kernel_bandwidth += exposed * (1.0 - share)

    def add_copy(self, klass: int, seconds: float) -> None:
        if klass == 0:
            self.copy_capacity += seconds
        elif klass == 1:
            self.copy_latency += seconds
        else:
            self.copy_bandwidth += seconds

    def finalize(
        self, factor: float, shares: tuple[float, float, float], exact: bool
    ) -> Decomposition:
        """Assemble class seconds using the run-global movement scaling.

        ``factor`` rescales raw copy seconds onto the movement wall
        residual; ``shares`` split stalls by the run's copy-class mix.
        When the run saw no copies at all (``exact`` False for movement),
        residual movement/stall time is honestly unattributed.
        """
        cap_share, lat_share, bw_share = shares
        if exact:
            capacity = self.copy_capacity * factor + self.stall_seconds * cap_share
            latency = self.copy_latency * factor + self.stall_seconds * lat_share
            bandwidth = self.copy_bandwidth * factor + self.stall_seconds * bw_share
            unattributed = 0.0
        else:
            capacity = latency = bandwidth = 0.0
            unattributed = self.stall_seconds
        return Decomposition(
            compute=self.kernel_compute,
            bandwidth=self.kernel_bandwidth + bandwidth,
            latency=self.kernel_latency + latency,
            capacity=capacity + self.gc_seconds,
            unattributed=unattributed,
        )


@dataclass(frozen=True)
class Taxonomy:
    """A classified run: the verdict plus everything backing it up."""

    source: str  # "trace" | "monitor"
    wall_seconds: float
    decomposition: Decomposition
    phases: dict[str, Decomposition] = field(default_factory=dict)
    windows: tuple[WindowSlice, ...] = ()
    causes: tuple[CauseRollup, ...] = ()
    kernels: int = 0
    copies: int = 0
    copy_bytes: int = 0
    copy_seconds: float = 0.0
    stall_seconds: float = 0.0
    gc_seconds: float = 0.0
    movement_intensity: float | None = None

    @property
    def verdict(self) -> str:
        return self.decomposition.dominant

    def to_json(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "wall_seconds": self.wall_seconds,
            "verdict": self.verdict,
            "decomposition": self.decomposition.to_json(),
            "phases": {
                name: decomposition.to_json()
                for name, decomposition in sorted(self.phases.items())
            },
            "windows": [window.to_json() for window in self.windows],
            "causes": [cause.to_json() for cause in self.causes],
            "kernels": self.kernels,
            "copies": self.copies,
            "copy_bytes": self.copy_bytes,
            "copy_seconds": self.copy_seconds,
            "stall_seconds": self.stall_seconds,
            "gc_seconds": self.gc_seconds,
            "movement_intensity": self.movement_intensity,
        }


def movement_intensity(ledger: "ObjectLedger") -> float | None:
    """Roofline x-axis: bytes moved per byte used, over the whole run.

    ``None`` when the run recorded no uses (nothing to normalise by);
    0.0 is a perfectly-placed run, >1 moves objects more than it uses them.
    """
    moved = sum(h.bytes_moved for h in ledger.objects.values())
    used = sum(h.bytes_used for h in ledger.objects.values())
    if used <= 0:
        return None if moved > 0 else 0.0
    return moved / used


def classify_trace(
    events: Iterable[TraceEvent],
    cost: CostModel,
    *,
    window_seconds: float | None = None,
    ledger: "ObjectLedger | None" = None,
) -> Taxonomy:
    """Classify a fully-traced run; single pass over the event list.

    Copies and stalls between two kernels belong to the *next* kernel's
    phase (synchronous placement copies are emitted inside the kernel's
    start/end span, so this charges them to the kernel they served);
    anything after the last kernel lands in ``(drain)``.
    """
    run = _Bucket()
    phase_buckets: dict[str, _Bucket] = {}
    window_buckets: dict[int, _Bucket] = {}
    pending = _Bucket()  # copy/stall/gc contributions awaiting a phase
    cause_copies: dict[str, int] = {}
    cause_seconds: dict[str, float] = {}
    cause_bytes: dict[str, int] = {}

    wall = 0.0
    kernel_total = 0.0
    kernels = copies = 0
    copy_bytes = 0
    copy_seconds_total = 0.0
    stall_total = 0.0
    gc_total = 0.0

    def window_bucket(ts: float) -> "_Bucket | None":
        if window_seconds is None:
            return None
        index = int(ts / window_seconds)
        bucket = window_buckets.get(index)
        if bucket is None:
            bucket = window_buckets[index] = _Bucket()
        return bucket

    for event in events:
        kind = event.kind
        ts = event.ts
        if ts > wall:
            wall = ts
        if kind == KERNEL_END:
            args = event.args
            seconds = float(args.get("seconds", 0.0))
            compute = float(args.get("compute", 0.0))
            memory = float(args.get("memory", 0.0))
            fixed = float(args.get("fixed", 0.0))
            phase = str(args.get("phase", "")) or "(unphased)"
            kernels += 1
            kernel_total += seconds
            run.add_kernel(seconds, compute, memory, fixed, cost.launch_overhead)
            bucket = phase_buckets.get(phase)
            if bucket is None:
                bucket = phase_buckets[phase] = _Bucket()
            bucket.add_kernel(seconds, compute, memory, fixed, cost.launch_overhead)
            # The movement that fed this kernel resolves to its phase now.
            bucket.copy_capacity += pending.copy_capacity
            bucket.copy_latency += pending.copy_latency
            bucket.copy_bandwidth += pending.copy_bandwidth
            bucket.stall_seconds += pending.stall_seconds
            bucket.gc_seconds += pending.gc_seconds
            pending = _Bucket()
            wbucket = window_bucket(ts)
            if wbucket is not None:
                wbucket.add_kernel(
                    seconds, compute, memory, fixed, cost.launch_overhead
                )
        elif kind == COPY_START:
            args = event.args
            seconds = float(args.get("seconds", 0.0))
            nbytes = int(args.get("nbytes", 0))
            src = str(args.get("src", ""))
            dst = str(args.get("dst", ""))
            # Innermost cause = the copy's mechanism. An eviction nested
            # under a placement root is still capacity work; the root is
            # cost attribution, not classification.
            ckind = cause_kind(event.cause)
            copies += 1
            copy_bytes += nbytes
            copy_seconds_total += seconds
            cause_copies[ckind] = cause_copies.get(ckind, 0) + 1
            cause_seconds[ckind] = cause_seconds.get(ckind, 0.0) + seconds
            cause_bytes[ckind] = cause_bytes.get(ckind, 0) + nbytes
            if ckind in CAPACITY_KINDS:
                contributions = ((0, seconds),)
            else:
                fixed = min(seconds, cost.copy_fixed(src, dst, nbytes))
                contributions = ((1, fixed), (2, seconds - fixed))
            for klass, amount in contributions:
                run.add_copy(klass, amount)
                pending.add_copy(klass, amount)
                wbucket = window_bucket(ts)
                if wbucket is not None:
                    wbucket.add_copy(klass, amount)
        elif kind == STALL:
            seconds = float(event.args.get("seconds", 0.0))
            stall_total += seconds
            run.stall_seconds += seconds
            pending.stall_seconds += seconds
            wbucket = window_bucket(ts)
            if wbucket is not None:
                wbucket.stall_seconds += seconds
        elif kind == GC:
            seconds = float(event.args.get("seconds", 0.0))
            gc_total += seconds
            run.gc_seconds += seconds
            pending.gc_seconds += seconds
            wbucket = window_bucket(ts)
            if wbucket is not None:
                wbucket.gc_seconds += seconds

    if pending.copy_capacity or pending.copy_latency or pending.copy_bandwidth \
            or pending.stall_seconds or pending.gc_seconds:
        drain = phase_buckets.setdefault("(drain)", _Bucket())
        drain.copy_capacity += pending.copy_capacity
        drain.copy_latency += pending.copy_latency
        drain.copy_bandwidth += pending.copy_bandwidth
        drain.stall_seconds += pending.stall_seconds
        drain.gc_seconds += pending.gc_seconds

    factor, shares, exact, movement_wall = _movement_scaling(
        wall, kernel_total, stall_total, gc_total,
        run.copy_capacity, run.copy_latency, run.copy_bandwidth,
    )
    decomposition = run.finalize(factor, shares, exact)
    if not exact and movement_wall > 0.0:
        # Residual wall with zero copies to carry it: honestly unknown.
        decomposition = replace(
            decomposition,
            unattributed=decomposition.unattributed + movement_wall,
        )
    phases = {
        name: bucket.finalize(factor, shares, exact)
        for name, bucket in phase_buckets.items()
    }
    windows = tuple(
        WindowSlice(
            index=index,
            start=index * window_seconds,  # type: ignore[operator]
            decomposition=bucket.finalize(factor, shares, exact),
        )
        for index, bucket in sorted(window_buckets.items())
    )
    causes = tuple(
        CauseRollup(
            kind=kind,
            klass="capacity" if kind in CAPACITY_KINDS else "demand",
            copies=cause_copies[kind],
            seconds=cause_seconds[kind],
            nbytes=cause_bytes[kind],
        )
        for kind in sorted(cause_seconds, key=lambda k: -cause_seconds[k])
    )
    return Taxonomy(
        source="trace",
        wall_seconds=wall,
        decomposition=decomposition,
        phases=phases,
        windows=windows,
        causes=causes,
        kernels=kernels,
        copies=copies,
        copy_bytes=copy_bytes,
        copy_seconds=copy_seconds_total,
        stall_seconds=stall_total,
        gc_seconds=gc_total,
        movement_intensity=(
            movement_intensity(ledger) if ledger is not None else None
        ),
    )


def classify_monitor(monitor: RuntimeMonitor, cost: CostModel) -> Taxonomy:
    """Classify from a runtime monitor's rollups alone.

    Works on both a live :class:`MonitorTracer` feed (events kept or not)
    and an offline ``observe_all`` replay. Coarser than :func:`classify_trace` —
    the rollups do not carry per-copy endpoints or kernel phases — but
    the class algebra is identical, with each copy's fixed cost taken as
    :attr:`CostModel.default_copy_fixed`.
    """
    totals = monitor.totals
    run = _Bucket()
    kernels = int(totals["kernels"])
    kernel_total = float(totals["kernel_seconds"])
    compute = float(totals["kernel_compute_seconds"])
    memory = float(totals["kernel_memory_seconds"])
    fixed = float(totals["kernel_fixed_seconds"])
    run.add_kernel(
        kernel_total, compute, memory, fixed, kernels * cost.launch_overhead
    )
    cause_copies = monitor.copies_by_cause
    cause_seconds = monitor.copy_seconds_by_cause
    copies = 0
    for kind, seconds in cause_seconds.items():
        count = cause_copies.get(kind, 0)
        copies += count
        if kind in CAPACITY_KINDS:
            run.add_copy(0, seconds)
        else:
            fixed_est = min(seconds, count * cost.default_copy_fixed)
            run.add_copy(1, fixed_est)
            run.add_copy(2, seconds - fixed_est)
    stall_total = float(totals["stall_seconds"])
    gc_total = float(totals["gc_seconds"])
    run.stall_seconds = stall_total
    run.gc_seconds = gc_total
    wall = monitor.last_ts
    factor, shares, exact, movement_wall = _movement_scaling(
        wall, kernel_total, stall_total, gc_total,
        run.copy_capacity, run.copy_latency, run.copy_bandwidth,
    )
    decomposition = run.finalize(factor, shares, exact)
    if not exact and movement_wall > 0.0:
        decomposition = replace(
            decomposition,
            unattributed=decomposition.unattributed + movement_wall,
        )
    causes = tuple(
        CauseRollup(
            kind=kind,
            klass="capacity" if kind in CAPACITY_KINDS else "demand",
            copies=cause_copies.get(kind, 0),
            seconds=seconds,
            nbytes=0,
        )
        for kind, seconds in sorted(
            cause_seconds.items(), key=lambda item: -item[1]
        )
    )
    return Taxonomy(
        source="monitor",
        wall_seconds=wall,
        decomposition=decomposition,
        causes=causes,
        kernels=kernels,
        copies=copies,
        copy_bytes=int(totals["copy_bytes"]),
        copy_seconds=float(totals["copy_seconds"]),
        stall_seconds=stall_total,
        gc_seconds=gc_total,
    )


def _movement_scaling(
    wall: float,
    kernel_total: float,
    stall_total: float,
    gc_total: float,
    cap_raw: float,
    lat_raw: float,
    bw_raw: float,
) -> tuple[float, tuple[float, float, float], bool, float]:
    """The run-global movement rescale: (factor, stall shares, exact?, residual).

    The wall residual past kernels/stalls/GC is time the clock advanced for
    data movement. Synchronous copies account for it exactly (the residual
    equals summed copy seconds); asynchronous copies overlap, so the
    rescale shrinks their raw seconds onto the exposed residual instead of
    double-counting hidden movement.
    """
    total_copy = cap_raw + lat_raw + bw_raw
    movement_wall = wall - kernel_total - stall_total - gc_total
    if movement_wall < 0.0:
        movement_wall = 0.0
    if total_copy <= 0.0:
        return 0.0, (0.0, 0.0, 0.0), False, movement_wall
    factor = movement_wall / total_copy
    shares = (cap_raw / total_copy, lat_raw / total_copy, bw_raw / total_copy)
    return factor, shares, True, movement_wall

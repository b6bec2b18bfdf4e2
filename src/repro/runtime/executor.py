"""Trace executor: runs one workload against either memory system.

The executor walks an annotated :class:`~repro.workloads.trace.KernelTrace`
event by event, delegating memory behaviour to a *system adapter*:

* :class:`CachedArraysAdapter` — objects placed by a policy over a
  :class:`~repro.core.Session`; ``will_read``/``will_write`` hints fire per
  kernel, residency is ensured and pinned, the roofline cost model charges
  each operand at its device's bandwidth, and policy-driven copies advance
  the clock under the ``movement`` category.
* :class:`TwoLMAdapter` — tensors live in a flat NVRAM space behind the
  hardware DRAM cache; every operand access streams through the cache
  simulator, which yields both the timing and the Figure 4/5 counters.

Identical traces + identical device models, differing only in the memory
system — the controlled comparison the paper runs on real hardware.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import inf
from typing import NamedTuple

from repro.core.object import MemObject
from repro.core.session import Session
from repro.errors import OutOfMemoryError, TraceError
from repro.memory.allocator import FreeListAllocator
from repro.memory.device import MemoryKind
from repro.memory.heap import Heap
from repro.runtime.gc import GarbageCollector, GcConfig
from repro.runtime.recovery import LadderHooks, recover_allocation
# ``kernel_timing`` is not called here (the adapter prices inline); it stays
# bound because the layered benchmark's span recorder wraps a target's
# by-name imports in the hot modules and its self-test reads this binding.
from repro.runtime.kernel import (  # noqa: F401
    KERNEL_THREADS,
    NVRAM_WRITE_THREADS,
    PEAK_FLOPS,
    ExecutionParams,
    KernelTiming,
    kernel_timing,
)
from repro.runtime.scheduler import StreamGen, StreamScheduler
from repro.sim.bandwidth import TransferKind
from repro.sim.clock import SimClock, snap_residue
from repro.telemetry import trace as tracing
from repro.telemetry.counters import TrafficCounters, TrafficSnapshot
from repro.telemetry.timeline import Timeline, TimelineFrame
from repro.telemetry.trace import TraceEvent
from repro.twolm.dramcache import CacheStats
from repro.twolm.system import TwoLMSystem
from repro.workloads.trace import (
    Alloc,
    Archive,
    GcDefer,
    IterEnd,
    Kernel,
    KernelTrace,
    Retire,
    TensorSpec,
    WillRead,
    WillWrite,
)

__all__ = [
    "SystemAdapter",
    "CachedArraysAdapter",
    "TwoLMAdapter",
    "Executor",
    "IterationResult",
    "RunResult",
]

KERNEL = "kernel"
MOVEMENT = "movement"
MOVEMENT_WAIT = "movement_wait"  # async mode: stalls on in-flight copies
GC = "gc"


MeterSources = tuple[
    list[tuple[str, FreeListAllocator]], list[tuple[str, TrafficCounters]]
]


def _bad_factors(kernel: Kernel) -> ValueError:
    """``KernelTrace.validate``'s rule, for a kernel that reached an adapter
    unvalidated: each traffic factor finite and at least 0 (NaN is neither)."""
    return ValueError(
        f"kernel {kernel.name!r}: traffic factors ({kernel.read_factor}, "
        f"{kernel.write_factor}) must be finite and >= 0"
    )


class SystemAdapter(abc.ABC):
    """What the executor needs from a memory system."""

    clock: SimClock
    # Structured event tracer; adapters that support tracing override this
    # per instance. The executor emits kernel-boundary spans through it.
    tracer: "tracing.Tracer | tracing.NullTracer" = tracing.NULL_TRACER
    # Tenant owning this adapter's allocations (recovery-ladder attribution);
    # single-tenant baselines leave it empty.
    tenant: str = ""

    @abc.abstractmethod
    def alloc(self, spec: TensorSpec) -> None: ...

    @abc.abstractmethod
    def exists(self, name: str) -> bool: ...

    @abc.abstractmethod
    def release(self, name: str) -> None: ...

    @abc.abstractmethod
    def kernel(self, kernel: Kernel, trace: KernelTrace) -> KernelTiming: ...

    @abc.abstractmethod
    def archive(self, name: str) -> None: ...

    def hint_read(self, name: str) -> None:
        """Explicit early will_read (lookahead annotation); default no-op."""

    def hint_write(self, name: str) -> None:
        """Explicit early will_write; default no-op."""

    @abc.abstractmethod
    def occupancy(self) -> dict[str, int]: ...

    @abc.abstractmethod
    def traffic(self) -> dict[str, TrafficSnapshot]: ...

    @abc.abstractmethod
    def meters(self) -> MeterSources:
        """The live objects behind :meth:`occupancy` and :meth:`traffic`.

        ``(device, allocator)`` pairs in ``occupancy()`` key order and
        ``(device, counters)`` pairs in ``traffic()`` key order. The run
        loop binds them once per ``stream()`` and reads ``used_bytes`` /
        ``read_bytes + write_bytes`` off them at every event instead of
        asking for a fresh dict; the sources must therefore stay the same
        objects for the adapter's lifetime (resizing a heap mutates its
        allocator in place).
        """

    @abc.abstractmethod
    def live_count(self) -> int: ...

    def cache_stats(self) -> CacheStats | None:
        return None

    def iteration_end(self) -> None:
        """Between-iteration housekeeping (defragmentation for CA)."""

    def policy_stats(self) -> dict[str, int]:
        return {}

    # -- recovery-ladder hooks (docs/robustness.md); defaults decline --------

    @property
    def metrics(self):
        """The system's metrics registry, if it has one (for recovery counters)."""
        return None

    def make_room(self, device: str, nbytes: int) -> bool:
        """Ladder rung 2: free a contiguous span on ``device``; default declines."""
        return False

    def defrag_device(self, device: str) -> bool:
        """Ladder rung 3: compact ``device``'s heap; default declines."""
        return False

    def alloc_fallback(self, spec: TensorSpec) -> bool:
        """Ladder rung 4: allocate ``spec`` on *any* tier; default declines."""
        return False


class _HeapPlan(NamedTuple):
    """What pricing a kernel operand on one heap reads that does not depend
    on the operand: built once per heap."""

    read_peak: float  # READ at KERNEL_THREADS
    write_peak: float  # NVRAM: WRITE_NT at NVRAM_WRITE_THREADS; else WRITE
    setup: float  # the model's setup_latency
    nvram: bool
    traffic: TrafficCounters


class CachedArraysAdapter(SystemAdapter):
    """Run traces on a CachedArrays session (any policy).

    A kernel is priced with :func:`~repro.runtime.kernel.kernel_timing`'s
    expression, inline, from a plan per heap (:class:`_HeapPlan`) built the
    first time an operand lands on that heap; ``kernel_timing`` stays the
    reference formula. The adapter's ``params`` are fixed for its lifetime.
    """

    def __init__(self, session: Session, params: ExecutionParams) -> None:
        self.session = session
        self.params = params
        self.clock = session.clock
        self.tracer = session.tracer
        self.tenant = session.tenant
        self.objects: dict[str, MemObject] = {}
        self._kernel_count = 0
        self._plans: dict[Heap, _HeapPlan] = {}

    # The heap plans are derived state: dropped on save, rebuilt from the
    # restored heaps on the first kernel after a restore.
    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state["_plans"] = {}
        return state

    def alloc(self, spec: TensorSpec) -> None:
        obj = self.session.new_object(spec.nbytes, spec.name)
        try:
            with self.tracer.scope("place", spec.name):
                self.session.policy.place(obj)
        except Exception:
            # Failed placement must not leak a region-less object: recovery
            # retries alloc() and would otherwise pile up orphans that
            # DataManager.check() sweeps see as live.
            self.session.manager.destroy_object(obj)
            raise
        self.objects[spec.name] = obj

    def exists(self, name: str) -> bool:
        return name in self.objects

    def release(self, name: str) -> None:
        obj = self.objects.pop(name)
        with self.tracer.hint("retire", name):
            self.session.policy.retire(obj)

    def archive(self, name: str) -> None:
        with self.tracer.hint("archive", name):
            self.session.policy.archive(self.objects[name])

    def hint_read(self, name: str) -> None:
        with self.tracer.hint("will_read", name):
            self.session.policy.will_read(self.objects[name])

    def hint_write(self, name: str) -> None:
        with self.tracer.hint("will_write", name):
            self.session.policy.will_write(self.objects[name])

    def kernel(self, kernel: Kernel, trace: KernelTrace) -> KernelTiming:
        # Refused before any hint, residency move or traffic charge, with
        # kernel_timing's error for the sensitivity.
        if not (0.0 <= kernel.read_factor < inf and 0.0 <= kernel.write_factor < inf):
            raise _bad_factors(kernel)
        sensitivity = kernel.read_sensitivity
        if not 0.0 <= sensitivity <= 1.0:
            raise ValueError(f"read_sensitivity must be in [0,1]: {sensitivity}")
        policy = self.session.policy
        tracer = self.tracer
        objects = self.objects
        read_objs = [*map(objects.__getitem__, kernel.reads)]
        write_objs = [*map(objects.__getitem__, kernel.writes)]
        pinned: list[MemObject] = []
        try:
            policy.acquire_operands(
                read_objs, write_objs, kernel.hinted, pinned, tracer
            )
            # kernel_timing's expression, term for term and in its order
            # (reads, then writes, each in operand order), from the plan of
            # the heap each operand lives on; each operand's bytes are
            # charged to that heap's counters as it is priced. A positive
            # size times a checked factor is never a negative byte count.
            # The same walk finds the latest ``ready_at`` of the operands'
            # primaries, for the wait below.
            ready_at = 0.0
            flops = kernel.flops
            compute = self.params.launch_overhead + (
                flops / PEAK_FLOPS if flops > 0 else 0.0
            )
            dram = 0.0
            nvram = 0.0
            fixed = 0.0
            plans = self._plans
            factor = kernel.read_factor
            for obj in read_objs:
                primary = obj.primary
                assert primary is not None
                if primary.ready_at > ready_at:
                    ready_at = primary.ready_at
                nbytes = int(obj.size * factor)
                if nbytes > 0:
                    heap = primary.heap
                    try:
                        plan = plans[heap]
                    except KeyError:
                        plan = self._plan(heap)
                    peak, _, setup, is_nvram, traffic = plan
                    traffic.read_bytes += nbytes
                    seconds = nbytes / (nbytes / (nbytes / peak + setup))
                    fixed += setup
                    if is_nvram:
                        nvram += seconds * sensitivity
                        dram += seconds * (1.0 - sensitivity)
                    else:
                        dram += seconds
            factor = kernel.write_factor
            for obj in write_objs:
                primary = obj.primary
                assert primary is not None
                if primary.ready_at > ready_at:
                    ready_at = primary.ready_at
                nbytes = int(obj.size * factor)
                if nbytes > 0:
                    heap = primary.heap
                    try:
                        plan = plans[heap]
                    except KeyError:
                        plan = self._plan(heap)
                    _, peak, setup, is_nvram, traffic = plan
                    traffic.write_bytes += nbytes
                    fixed += setup
                    seconds = nbytes / (nbytes / (nbytes / peak + setup))
                    if is_nvram:
                        nvram += seconds
                    else:
                        dram += seconds
            # Asynchronous movement: the kernel cannot start until every
            # operand's in-flight copy has completed (pricing reads no
            # clock, so the wait may follow it). The wait is clamped at the
            # source: ready_at sums can drift a few ULPs past the clock,
            # and those residues are not real stalls.
            now = self.clock.now
            wait = snap_residue(ready_at - now, now)
            if wait > 0:
                # Extra work only a full trace wants: which operands are
                # still in flight, and by how much, read off the clock
                # *before* the wait advances it.
                late = [
                    (obj.name, obj.primary.ready_at - now)
                    for obj in pinned
                    if obj.primary is not None and obj.primary.ready_at > now
                ] if tracer.enabled else ()
                self.clock.advance(wait, MOVEMENT_WAIT)
                tracer.stall(kernel.name, wait, late)
            timing = KernelTiming(compute, dram, nvram, fixed)
        finally:
            MemObject.unpin_all(pinned)
        policy.on_kernel_finish(read_objs, write_objs)
        self._kernel_count += 1
        paranoia = self.params.paranoia
        if paranoia > 0 and self._kernel_count % paranoia == 0:
            self._check_invariants()
        return timing

    def _plan(self, heap: Heap) -> _HeapPlan:
        """The plan table's miss path: the rates and counters of ``heap``
        that pricing an operand on it reads."""
        model = heap.device.bandwidth
        is_nvram = heap.device.kind is MemoryKind.NVRAM
        if is_nvram:
            write_peak = model.peak(TransferKind.WRITE_NT, NVRAM_WRITE_THREADS)
        else:
            write_peak = model.peak(TransferKind.WRITE, KERNEL_THREADS)
        plan = self._plans[heap] = _HeapPlan(
            model.peak(TransferKind.READ, KERNEL_THREADS),
            write_peak,
            model.setup_latency,
            is_nvram,
            heap.traffic,
        )
        return plan

    def _check_invariants(self) -> None:
        """Paranoia mode: validate heap + policy invariants, trace the check."""
        self.session.manager.check_invariants()
        check = getattr(self.session.policy, "check_invariant", None)
        if check is not None:
            check()
        self.tracer.invariant_check(self._kernel_count)

    def occupancy(self) -> dict[str, int]:
        return self.session.occupancy()

    def traffic(self) -> dict[str, TrafficSnapshot]:
        return self.session.traffic()

    def meters(self) -> MeterSources:
        heaps = self.session.heaps
        return (
            [(name, heap.allocator) for name, heap in heaps.items()],
            [(name, heap.traffic) for name, heap in heaps.items()],
        )

    def live_count(self) -> int:
        return len(self.objects)

    def iteration_end(self) -> None:
        # Drain the DMA channel: an iteration is not over until its queued
        # evictions/prefetches have landed.
        engine = self.session.engine
        drain = engine.drain_wait()
        if drain > 0:
            # Extra work only a full trace wants: blame the drain on the
            # objects still in flight (same scheme as the kernel-entry
            # stall above), read before the wait advances the clock.
            late = (
                engine.pending_labels(self.clock.now)
                if self.tracer.enabled else ()
            )
            self.clock.advance(drain, MOVEMENT_WAIT)
            self.tracer.stall("iter_end_drain", drain, late)
        self.session.defragment()
        self.session.policy.on_iteration_end()

    def policy_stats(self) -> dict[str, int]:
        stats = getattr(self.session.policy, "stats", None)
        return stats.as_dict() if stats is not None else {}

    # -- recovery-ladder hooks -----------------------------------------------

    @property
    def metrics(self):
        return self.session.metrics

    def make_room(self, device: str, nbytes: int) -> bool:
        with self.tracer.scope("pressure", device):
            return self.session.policy.handle_pressure(device, nbytes)

    def defrag_device(self, device: str) -> bool:
        self.session.manager.defragment(device)
        return True

    def alloc_fallback(self, spec: TensorSpec) -> bool:
        """Place the tensor on whichever tier still has room, bypassing the
        policy's (exhausted) placement preference."""
        manager = self.session.manager
        for device in manager.devices():
            region = manager.try_allocate(device, spec.nbytes)
            if region is None:
                continue
            obj = self.session.new_object(spec.nbytes, spec.name)
            manager.setprimary(obj, region)
            self.objects[spec.name] = obj
            return True
        return False


class TwoLMAdapter(SystemAdapter):
    """Run traces on the Memory-Mode (hardware DRAM cache) baseline."""

    def __init__(self, system: TwoLMSystem, params: ExecutionParams) -> None:
        self.system = system
        self.params = params
        self.clock = SimClock()
        self.tracer = tracing.NULL_TRACER
        self.offsets: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        # Each live tensor's whole-pass ``(first line, lines, is_write)``
        # span, one dict per write flag: a kernel hands the same tuple for
        # every full pass. Derived from ``offsets``/``sizes``: dropped on
        # save, rebuilt on restore.
        self._read_spans: dict[str, tuple[int, int, bool]] = {}
        self._write_spans: dict[str, tuple[int, int, bool]] = {}

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        del state["_read_spans"], state["_write_spans"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._read_spans, self._write_spans = {}, {}
        for name, offset in self.offsets.items():
            self._add_spans(name, offset, self.sizes[name])

    def _add_spans(self, name: str, offset: int, nbytes: int) -> None:
        line_size = self.system.cache.line_size
        first = offset // line_size
        lines = (offset + nbytes - 1) // line_size - first + 1
        self._read_spans[name] = (first, lines, False)
        self._write_spans[name] = (first, lines, True)

    def alloc(self, spec: TensorSpec) -> None:
        offset = self.system.allocate(spec.nbytes)
        self.offsets[spec.name] = offset
        self.sizes[spec.name] = spec.nbytes
        self._add_spans(spec.name, offset, spec.nbytes)
        self.tracer.alloc(
            self.system.nvram.name, offset, spec.nbytes, spec.name
        )

    def exists(self, name: str) -> bool:
        return name in self.offsets

    def release(self, name: str) -> None:
        offset = self.offsets.pop(name)
        nbytes = self.sizes.pop(name)
        del self._read_spans[name], self._write_spans[name]
        self.system.free(offset)
        self.tracer.free(self.system.nvram.name, offset, nbytes, name)

    def archive(self, name: str) -> None:
        """Hardware caches receive no semantic hints — deliberately a no-op."""

    def kernel(self, kernel: Kernel, trace: KernelTrace) -> KernelTiming:
        # Each operand is streamed ``factor`` times, one sweep per pass:
        # ``whole`` full passes, each the operand's one shared span, then a
        # fractional ``tail`` pass clamped to [one line, the operand]. The
        # factor is split once per operand list; the system walks and
        # prices the whole kernel in one call.
        # An infinite factor would never leave the split: refused first.
        if not (0.0 <= kernel.read_factor < inf and 0.0 <= kernel.write_factor < inf):
            raise _bad_factors(kernel)
        line_size = self.system.cache.line_size
        offsets, sizes = self.offsets, self.sizes
        spans: list[tuple[int, int, bool]] = []
        for names, factor, is_write, whole_spans in (
            (kernel.reads, kernel.read_factor, False, self._read_spans),
            (kernel.writes, kernel.write_factor, True, self._write_spans),
        ):
            if factor == 1.0:  # one full pass per operand, the common case
                spans += map(whole_spans.__getitem__, names)
                continue
            whole, tail = 0, factor
            while tail >= 1.0:
                whole += 1
                tail -= 1.0
            for name in names:
                span = whole_spans[name]
                spans += (span,) * whole
                if tail > 1e-9:
                    offset, size = offsets[name], sizes[name]
                    nbytes = min(max(line_size, int(size * tail)), size)
                    first = span[0]
                    lines = (offset + nbytes - 1) // line_size - first + 1
                    spans.append((first, lines, is_write))
        dram, nvram = self.system.access_spans(spans, kernel.read_sensitivity)
        compute = self.params.launch_overhead + (
            kernel.flops / PEAK_FLOPS if kernel.flops > 0 else 0.0
        )
        return KernelTiming(compute, dram, nvram)

    def occupancy(self) -> dict[str, int]:
        return {self.system.nvram.name: self.system.used_bytes}

    def traffic(self) -> dict[str, TrafficSnapshot]:
        return {
            self.system.dram.name: self.system.dram_traffic.snapshot(),
            self.system.nvram.name: self.system.nvram_traffic.snapshot(),
        }

    def meters(self) -> MeterSources:
        system = self.system
        return (
            [(system.nvram.name, system.allocator)],
            [
                (system.dram.name, system.dram_traffic),
                (system.nvram.name, system.nvram_traffic),
            ],
        )

    def live_count(self) -> int:
        return len(self.offsets)

    def cache_stats(self) -> CacheStats | None:
        return self.system.cache_stats()


@dataclass
class IterationResult:
    """Everything the paper measures for one training iteration."""

    index: int
    seconds: float
    start_time: float
    end_time: float
    compute_seconds: float
    kernel_memory_seconds: float
    movement_seconds: float
    gc_seconds: float
    gc_collections: int
    traffic: dict[str, TrafficSnapshot]
    cache: CacheStats | None
    peak_occupancy: dict[str, int]
    policy_stats: dict[str, int] = field(default_factory=dict)

    @property
    def projected_async_seconds(self) -> float:
        """Figure 7's 'perfectly asynchronous movement' projection: all
        synchronous copy time overlapped away."""
        return max(self.seconds - self.movement_seconds, self.compute_seconds)

    def traffic_gb(self, device: str) -> tuple[float, float]:
        snap = self.traffic[device]
        return snap.read_bytes / 1e9, snap.write_bytes / 1e9


@dataclass
class RunResult:
    """A full multi-iteration run plus its occupancy timelines."""

    trace_name: str
    iterations: list[IterationResult]
    occupancy_timeline: dict[str, Timeline]
    # Structured events collected during the run (empty when tracing is off):
    # an EventView over the tracer's records as they stood at the end.
    trace: Sequence[TraceEvent] = field(default_factory=list)

    def steady_state(self) -> IterationResult:
        """The last iteration — warmup (first-touch allocation of weights,
        cold caches) has settled, matching the paper's check that per-
        iteration behaviour is consistent."""
        return self.iterations[-1]

    def iteration_variance(self) -> float:
        """Coefficient of variation of post-warmup iteration times.

        The paper runs each model "for four iterations and performance
        metrics were checked to ensure that behavior for each iteration was
        consistent" — this is that check. Returns 0.0 with fewer than two
        post-warmup iterations.
        """
        tail = [it.seconds for it in self.iterations[1:]]
        if len(tail) < 2:
            return 0.0
        mean = sum(tail) / len(tail)
        if mean == 0:
            return 0.0
        variance = sum((t - mean) ** 2 for t in tail) / len(tail)
        return variance**0.5 / mean


@dataclass
class _ExecCursor:
    """Where a paused run stopped, picklable (part of a runtime snapshot).

    Captures the mid-iteration partials the ``stream`` loop keeps in locals,
    so a resumed generator re-enters the event loop at ``event_index`` with
    arithmetic identical to the uninterrupted run — no extra clock advances,
    samples, or yields.
    """

    iteration: int
    event_index: int  # next trace event to process
    results: list[IterationResult]
    compute: float
    kernel_memory: float
    peak: dict[str, int]
    saw_iter_end: bool
    checkpoint: object
    start_traffic: dict[str, TrafficSnapshot]
    start_cache: CacheStats | None
    start_collections: int


# Bound per stream(): (allocator, value column) per device, the ``total``
# column, (counters, value column) per device, and the frame they belong to.
_Tracks = tuple[
    list[tuple[FreeListAllocator, list]],
    list,
    list[tuple[TrafficCounters, list]],
    TimelineFrame,
]


class Executor:
    """Walks annotated traces over a system adapter, collecting telemetry."""

    # True once a finished stream handed the frame's tracks to its
    # RunResult: the next stream that samples records into a copy, so a
    # returned result never changes. A class default, so a snapshot taken
    # before this flag existed restores with it unset.
    _tracks_returned = False

    def __init__(
        self,
        adapter: SystemAdapter,
        *,
        gc_config: GcConfig | None = None,
        sample_timeline: bool = True,
        stream_name: str = "",
    ) -> None:
        self.adapter = adapter
        self.gc = GarbageCollector(
            gc_config or GcConfig(),
            release=adapter.release,
            live_objects=adapter.live_count,
        )
        self.sample_timeline = sample_timeline
        # Multi-tenant runs name each executor's stream; timeline tracks
        # are prefixed with it so per-tenant series stay monotonic and
        # distinguishable after merging. Empty (the default) leaves track
        # names exactly as the single-tenant runtime produced them.
        self.stream_name = stream_name
        self._track_prefix = f"{stream_name}/" if stream_name else ""
        self._timelines: dict[str, Timeline] = {}
        # The frame behind those tracks, made by the first stream that
        # samples; later and resumed streams keep recording into it (into
        # a copy of it once a result holds it).
        self._frame: TimelineFrame | None = None
        # Elastic checkpointing: when ``pause_after`` is set, the stream
        # returns (result ``None``) once that many kernels have executed,
        # leaving a picklable cursor behind; a later ``stream`` call resumes
        # from it (typically in a fresh process, after snapshot restore).
        self.pause_after: int | None = None
        self.kernels_done = 0
        self.paused = False
        self._cursor: _ExecCursor | None = None

    # -- event handlers -------------------------------------------------------

    def _alloc(self, spec: TensorSpec) -> None:
        if spec.persistent and self.adapter.exists(spec.name):
            return
        if self.gc.should_collect():
            self._collect()
        try:
            self.adapter.alloc(spec)
        except OutOfMemoryError as err:
            # The policy already did its own best effort (Listing 2); climb
            # the escalation ladder: collect deferred garbage, ask the policy
            # for contiguous space, defragment, then cross-tier fallback.
            # Exhaustion raises RecoveryExhaustedError (an OutOfMemoryError).
            tracer = self.adapter.tracer
            tracer.oom_retry(spec.name, spec.nbytes)
            recover_allocation(
                lambda: self.adapter.alloc(spec),
                err,
                LadderHooks(
                    collect=self._emergency_collect,
                    evict=self.adapter.make_room,
                    defrag=self.adapter.defrag_device,
                    fallback=lambda: self.adapter.alloc_fallback(spec),
                ),
                tracer=tracer,
                metrics=self.adapter.metrics,
                tenant=self.adapter.tenant,
            )
        self.gc.on_alloc(spec.nbytes)

    def _emergency_collect(self) -> bool:
        """Ladder rung 1: deferred-GC collection; declines with nothing queued."""
        if self.gc.deferred_count == 0:
            return False
        self._collect()
        return True

    def _collect(self) -> None:
        tracer = self.adapter.tracer
        with tracer.scope("gc"):
            pause = self.gc.collect()
        self.adapter.clock.advance(pause, GC)
        tracer.gc(pause)

    def _bind_tracks(self, meters: MeterSources) -> _Tracks | None:
        """Pair the meter sources with the executor's timeline frame.

        The frame's tracks are created in the order a sample records them —
        per-device occupancy, ``total``, then ``traffic:<device>``
        (cumulative traffic: differencing two samples gives the utilisation
        over the window between them) — by the first stream that samples;
        a resumed stream finds the frame its first leg (or a restored
        snapshot) made. A stream after a finished one records into a copy
        of the frame, whose tracks that run's result holds.
        """
        if not self.sample_timeline:
            return None
        occupancy, traffic = meters
        frame = self._frame
        if frame is not None and self._tracks_returned:
            frame = self._frame = frame.copy()
            self._timelines = {track.name: track for track in frame.tracks}
            self._tracks_returned = False
        if frame is None:
            prefix = self._track_prefix
            names = [prefix + device for device, _ in occupancy]
            names.append(prefix + "total")
            names += [f"{prefix}traffic:{device}" for device, _ in traffic]
            frame = self._frame = TimelineFrame(names)
            for track in frame.tracks:
                self._timelines[track.name] = track
        columns = frame.columns
        devices = len(occupancy)
        return (
            [(allocator, columns[i]) for i, (_, allocator) in enumerate(occupancy)],
            columns[devices],
            [
                (counters, columns[devices + 1 + i])
                for i, (_, counters) in enumerate(traffic)
            ],
            frame,
        )

    def _sample(self, tracks: _Tracks | None, label: str = "") -> None:
        if tracks is None:
            return
        occupancy, total_column, traffic, frame = tracks
        frame.stamp(self.adapter.clock.now, label)
        total = 0
        for allocator, column in occupancy:
            used = allocator.used_bytes
            column.append(used)
            total += used
        total_column.append(total)
        for counters, column in traffic:
            column.append(counters.read_bytes + counters.write_bytes)

    # -- the run loop -------------------------------------------------------------

    def run(self, trace: KernelTrace, iterations: int = 1) -> RunResult:
        """Execute ``iterations`` repetitions of the (annotated) trace.

        Single-stream convenience driver: spawns :meth:`stream` on a private
        :class:`StreamScheduler`, whose one-stream fast path replays the
        yielded kernel advances in exactly the historical sequential order.
        Co-running workloads spawn several executors' streams on one shared
        scheduler instead (see :mod:`repro.experiments.colo`).
        """
        scheduler = StreamScheduler(
            self.adapter.clock, tracer=self.adapter.tracer
        )
        stream = scheduler.spawn(self.stream_name, self.stream(trace, iterations))
        scheduler.run()
        return stream.result

    def stream(self, trace: KernelTrace, iterations: int = 1) -> StreamGen:
        """The run loop as a resumable stream generator.

        Walks the trace exactly like the historical ``run`` loop, but every
        kernel's duration is **yielded to the scheduler** as an
        ``(seconds, category)`` advance request instead of being applied to
        the clock here. Everything between two yields — hints, residency
        resolution, synchronous copies, stalls, GC — runs atomically at the
        stream's local time. Returns the :class:`RunResult` via
        ``StopIteration.value``.
        """
        if iterations < 1:
            raise TraceError(f"need at least one iteration, got {iterations}")
        adapter = self.adapter
        clock = adapter.clock
        tracer = adapter.tracer
        adapter_kernel = adapter.kernel
        kernel_start, kernel_end = tracer.kernel_start, tracer.kernel_end
        meters = adapter.meters()
        occupancy_meters = meters[0]
        tracks = self._bind_tracks(meters)
        # Decided once: a stream without timelines (every serving request)
        # never enters the sampler at its two per-event sites.
        sampling = tracks is not None
        cursor = self._cursor
        self._cursor = None
        self.paused = False
        results: list[IterationResult] = (
            cursor.results if cursor is not None else []
        )
        first_iteration = cursor.iteration if cursor is not None else 0
        for index in range(first_iteration, iterations):
            if cursor is not None and cursor.iteration == index:
                # Resuming a paused run: restore the mid-iteration partials
                # and re-enter the event loop where the pause left off. No
                # iteration-start sample — it already ran before the pause.
                checkpoint = cursor.checkpoint
                start_traffic = cursor.start_traffic
                start_cache = cursor.start_cache
                start_collections = cursor.start_collections
                compute = cursor.compute
                kernel_memory = cursor.kernel_memory
                peak = cursor.peak
                saw_iter_end = cursor.saw_iter_end
                first_event = cursor.event_index
                cursor = None
            else:
                checkpoint = clock.checkpoint()
                start_traffic = self.adapter.traffic()
                start_cache = self.adapter.cache_stats()
                start_collections = self.gc.collections
                compute = 0.0
                kernel_memory = 0.0
                peak = {}
                saw_iter_end = False
                first_event = 0
                self._sample(tracks, "iteration-start")
            # Dispatch on the exact event class, in event frequency order
            # (kernels dominate every model trace, then allocs, archives and
            # retires); anything else — a raw trace's Free — is refused.
            peak_get = peak.get
            events = trace.events
            for pos in range(first_event, len(events)):
                event = events[pos]
                kind = type(event)
                if kind is Kernel:
                    kernel_start(event.name)
                    timing = adapter_kernel(event, trace)
                    total = timing.total
                    # Yield the kernel's duration to the scheduler; other
                    # streams may run before this one resumes.
                    yield total, KERNEL
                    kernel_end(
                        event.name,
                        total,
                        timing.compute,
                        timing.memory,
                        timing.fixed,
                        event.phase,
                    )
                    compute += timing.compute
                    kernel_memory += timing.memory
                    if sampling:
                        self._sample(tracks)
                elif kind is Alloc:
                    self._alloc(trace.tensor(event.tensor))
                elif kind is Archive:
                    adapter.archive(event.tensor)
                elif kind is Retire:
                    adapter.release(event.tensor)
                    if sampling:
                        self._sample(tracks)
                elif kind is GcDefer:
                    self.gc.defer(event.tensor)
                elif kind is WillRead:
                    adapter.hint_read(event.tensor)
                elif kind is WillWrite:
                    adapter.hint_write(event.tensor)
                elif kind is IterEnd:
                    saw_iter_end = True
                else:
                    raise TraceError(
                        f"trace {trace.name!r}: event {pos} is {event!r}, which "
                        "the run loop cannot run (annotate the trace first)"
                    )
                for device, allocator in occupancy_meters:
                    used = allocator.used_bytes
                    if used > peak_get(device, 0):
                        peak[device] = used
                if kind is Kernel:
                    self.kernels_done += 1
                    if (
                        self.pause_after is not None
                        and self.kernels_done >= self.pause_after
                    ):
                        # Kernel-boundary checkpoint: park the mid-iteration
                        # state in a picklable cursor and end the stream.
                        # Everything up to and including this kernel's
                        # bookkeeping has run; nothing past it has.
                        self._cursor = _ExecCursor(
                            iteration=index,
                            event_index=pos + 1,
                            results=results,
                            compute=compute,
                            kernel_memory=kernel_memory,
                            peak=peak,
                            saw_iter_end=saw_iter_end,
                            checkpoint=checkpoint,
                            start_traffic=start_traffic,
                            start_cache=start_cache,
                            start_collections=start_collections,
                        )
                        self.paused = True
                        return None
            if not saw_iter_end:
                raise TraceError(f"trace {trace.name!r} lacks an IterEnd event")
            # Paper: "After each training iteration ... the GC was invoked";
            # heaps are then defragmented before the next run.
            self._collect()
            with tracer.scope("iter_end"):
                self.adapter.iteration_end()
            self._sample(tracks, "iteration-end")
            delta = clock.since(checkpoint)
            end_traffic = self.adapter.traffic()
            end_cache = self.adapter.cache_stats()
            results.append(
                IterationResult(
                    index=index,
                    seconds=delta.elapsed,
                    start_time=checkpoint.now,
                    end_time=clock.now,
                    compute_seconds=compute,
                    kernel_memory_seconds=kernel_memory,
                    movement_seconds=delta.of(MOVEMENT) + delta.of(MOVEMENT_WAIT),
                    gc_seconds=delta.of(GC),
                    gc_collections=self.gc.collections - start_collections,
                    traffic={
                        device: end_traffic[device] - start_traffic[device]
                        for device in end_traffic
                    },
                    cache=(
                        end_cache - start_cache
                        if end_cache is not None and start_cache is not None
                        else None
                    ),
                    peak_occupancy=peak,
                    policy_stats=self.adapter.policy_stats(),
                )
            )
        self._tracks_returned = True
        return RunResult(
            trace_name=trace.name,
            iterations=results,
            occupancy_timeline=dict(self._timelines),
            trace=tracer.events.copy(),
        )

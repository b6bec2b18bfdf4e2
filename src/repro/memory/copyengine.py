"""The copy engine: traffic-shaped bulk copies between heaps.

Section V credits much of CachedArrays' win to *traffic shaping*: NVRAM
traffic is "the result of explicit, well-shaped memory copies" using
non-temporal stores and a thread count tuned to the destination device,
instead of the haphazard line-sized fills/writebacks of the hardware cache.

The engine does three things per copy, each read off a *plan* it builds the
first time a (source heap, destination heap) pair is used and keeps after:

1. **Accounting** — read bytes on the source heap's counters, write bytes on
   the destination's (what Figure 5 plots). The plan holds both counters.
2. **Virtual time** — advances the shared clock by the bandwidth-modelled
   duration, with the per-destination optimal thread count (write bandwidth
   to Optane *decreases* past ~4 threads, Section V-d) and non-temporal
   stores toward NVRAM. The plan holds the worker count and both devices'
   peak rates and setup latencies, so a copy is priced with
   :func:`~repro.sim.bandwidth.copy_time`'s expression and no model call.
3. **Data** — when both devices are real, an honest memcpy (chunked across a
   thread pool above a size threshold, mirroring the paper's multi-threaded
   engine; numpy releases the GIL for large block copies).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError, CopyError
from repro.memory.heap import Heap
from repro.sim.bandwidth import TransferKind, optimal_copy_threads
from repro.sim.clock import SimClock, snap_residue
from repro.telemetry import trace as tracing
from repro.telemetry.counters import TrafficCounters
from repro.units import MiB

__all__ = ["CopyEngine", "CopyRecord"]

MOVEMENT = "movement"  # clock busy-category for data movement
# A real copy of at least PARALLEL_THRESHOLD bytes is chunked across a pool
# of POOL_WORKERS threads.
PARALLEL_THRESHOLD = 8 * MiB
POOL_WORKERS = 4
# Extra attempts an injected copy failure or a verification mismatch gets
# before the copy raises CopyError.
MAX_COPY_RETRIES = 2
_new_tuple = tuple.__new__


class CopyRecord(NamedTuple):
    """Outcome of one bulk copy, for logs and tests.

    ``completes_at`` is the virtual time the destination's contents become
    valid: equal to "now" for synchronous copies, later for asynchronous
    ones queued on the DMA channel. Always populated — consumers (ledger,
    export) never need to special-case a missing value. A tuple, built once
    per copy: a frozen dataclass sets each field through
    ``object.__setattr__``. The engine builds it with ``tuple.__new__``,
    which skips the generated ``__new__``'s Python frame.
    """

    source: str
    dest: str
    nbytes: int
    threads: int
    seconds: float
    nt_stores: bool
    completes_at: float


class _PairPlan(NamedTuple):
    """Everything a copy between one (source, destination) heap pair needs
    that does not depend on the copy: built once per pair, after the pair
    has passed the engine's refusal checks."""

    source: str
    dest: str
    threads: int
    nt_stores: bool
    read_peak: float  # source read peak at ``threads``
    read_setup: float
    write_peak: float  # destination (non-temporal) write peak at ``threads``
    write_setup: float
    source_traffic: TrafficCounters
    dest_traffic: TrafficCounters
    real: bool  # both devices real-backed: the copy moves bytes


class CopyEngine:
    """Bandwidth-modelled, traffic-accounted copies between heap regions."""

    def __init__(
        self,
        clock: SimClock,
        *,
        max_threads: int = 28,
        per_transfer_overhead: float = 0.0,
        async_mode: bool = False,
        tracer: "tracing.Tracer | tracing.NullTracer | None" = None,
        injector: object | None = None,
    ) -> None:
        if max_threads < 1:
            raise ConfigurationError(f"max_threads must be >= 1, got {max_threads}")
        if per_transfer_overhead < 0:
            raise ConfigurationError(
                f"per_transfer_overhead must be >= 0, got {per_transfer_overhead}"
            )
        self.clock = clock
        self.max_threads = max_threads
        # Fixed engine cost per transfer (worker wake-up and ramp): the
        # "parallelization overhead" that penalises workloads moving many
        # small tensors (VGG's batch-256 transfers, Section V-b).
        self.per_transfer_overhead = per_transfer_overhead
        # Asynchronous mode (Section VI / Figure 7's projection made real):
        # copies queue on one DMA channel per *destination device* ("a
        # separate thread pool", Section V-c) instead of blocking the
        # compute clock; consumers wait only if they touch the destination
        # before its completion time. One channel per destination respects
        # each device's write-port bandwidth while preventing evictions
        # (toward NVRAM) from head-of-line-blocking promotions (toward
        # DRAM). Virtual sessions only.
        self.async_mode = async_mode
        self._channel_free_at: dict[str, float] = {}
        self._pool: ThreadPoolExecutor | None = None
        self._plans: dict[tuple[Heap, Heap], _PairPlan] = {}
        # Fault-injection seam (docs/robustness.md): duck-typed object with
        # ``copy_plan(source, dest, nbytes)``; the engine never imports
        # repro.faults. Retry-with-verification only runs when an injector is
        # present, so fault-free runs pay nothing.
        self.injector = injector
        # Structured tracing: one copy_start/copy_end event pair per copy,
        # tagged with a sequence id so exporters can pair them as async spans.
        self.tracer = tracer if tracer is not None else tracing.NULL_TRACER
        self._copy_seq = 0
        # In-flight copy payloads for stall attribution (tracing only):
        # (completes_at, label) pairs registered via note_pending.
        self._inflight: list[tuple[float, str]] = []

    # -- thread tuning ------------------------------------------------------

    def threads_for(self, source: Heap, dest: Heap, *, nt_stores: bool) -> int:
        """Optimal worker count for this (source, destination) device pair."""
        return optimal_copy_threads(
            source.device.bandwidth, dest.device.bandwidth, self.max_threads,
            nt_stores=nt_stores,
        )

    def _plan(self, source: Heap, dest: Heap) -> _PairPlan:
        """The plan table's miss path: refuse a pair the engine cannot copy
        between, then bind the pair's constants. A refused pair is never
        remembered, so it is refused again on every call."""
        src_device, dst_device = source.device, dest.device
        src_real, dst_real = src_device.is_real, dst_device.is_real
        if self.async_mode:
            if src_real or dst_real:
                raise ConfigurationError(
                    "asynchronous movement is a timing model; it requires "
                    "virtual devices"
                )
        elif src_real != dst_real:
            raise ConfigurationError(
                "cannot copy between a real and a virtual device: "
                f"{src_device.name!r} -> {dst_device.name!r}"
            )
        # Non-temporal stores are crucial for NVRAM write bandwidth
        # (Section V-d); toward DRAM they avoid cache pollution for bulk
        # copies, so the engine always streams.
        threads = self.threads_for(source, dest, nt_stores=True)
        src_model, dst_model = src_device.bandwidth, dst_device.bandwidth
        plan = self._plans[source, dest] = _PairPlan(
            src_device.name, dst_device.name, threads, True,
            src_model.peak(TransferKind.READ, threads), src_model.setup_latency,
            dst_model.peak(TransferKind.WRITE_NT, threads), dst_model.setup_latency,
            source.traffic, dest.traffic, src_real and dst_real,
        )
        return plan

    # -- the copy -----------------------------------------------------------

    def copy(
        self,
        source: Heap,
        source_offset: int,
        dest: Heap,
        dest_offset: int,
        nbytes: int,
    ) -> CopyRecord:
        """Copy ``nbytes`` between heap allocations, accounting everything.

        A copy the engine cannot make (an asynchronous one touching a real
        device, a synchronous one between a real and a virtual device) is
        refused before anything is charged or the fault plan consulted.
        With a fault injector attached, injected copy failures are absorbed by
        retrying (each failed attempt is honestly charged: full transfer time
        on the clock and full traffic on both heaps, plus a ``copy_retry``
        trace event), injected bandwidth degradation derates the destination's
        write peak, and — on real-backed device pairs — the destination is
        verified against the source after the memcpy so injected silent
        corruption is caught and redone. Faults that persist past
        ``MAX_COPY_RETRIES`` raise :class:`~repro.errors.CopyError` after
        charging what was spent: loud failure, never a silently-corrupt
        destination.
        """
        if nbytes < 0:
            raise ConfigurationError(f"copy size must be non-negative, got {nbytes}")
        try:
            plan = self._plans[source, dest]
        except KeyError:
            plan = self._plan(source, dest)
        (src_name, dst_name, threads, nt_stores, read_peak, read_setup,
         write_peak, write_setup, src_traffic, dst_traffic, real_pair) = plan

        failed = corrupt = 0
        attempts = 1
        if self.injector is not None:
            fault = self.injector.copy_plan(src_name, dst_name, nbytes)
            if not fault.clean:
                if fault.slowdown > 1.0:
                    # DegradedBandwidth's peak: the inner peak over the factor.
                    write_peak /= fault.slowdown
                failed = fault.failures
                corrupt = fault.corrupt
                if corrupt and not real_pair:
                    # Virtual devices carry no payload to corrupt; model the
                    # verification mismatch as a failed-and-retried attempt
                    # instead, so timing-mode chaos runs exercise the same
                    # retry budget.
                    failed += corrupt
                    corrupt = 0
                if failed > MAX_COPY_RETRIES:  # every attempt fails
                    failed = attempts = MAX_COPY_RETRIES + 1
                else:
                    attempts = failed + 1

        # copy_time's expression, term for term, from the plan's constants.
        if nbytes:
            read_bw = nbytes / (nbytes / read_peak + read_setup)
            write_bw = nbytes / (nbytes / write_peak + write_setup)
            attempt_seconds = nbytes / (1.0 / (1.0 / read_bw + 1.0 / write_bw))
            attempt_seconds += self.per_transfer_overhead
        else:
            attempt_seconds = 0.0
        seconds = attempt_seconds * attempts
        charged = nbytes * attempts
        src_traffic.read_bytes += charged
        dst_traffic.write_bytes += charged

        if self.async_mode:
            free_at = self._channel_free_at.get(dst_name, 0.0)
            start = max(self.clock.now, free_at)
            completes_at = start + seconds
            self._channel_free_at[dst_name] = completes_at
        else:
            completes_at = self.clock.advance(seconds, MOVEMENT)

        if failed:
            for attempt in range(1, failed + 1):
                self.tracer.copy_retry(
                    completes_at - seconds + attempt_seconds * attempt,
                    src_name, dst_name, nbytes, attempt, "injected copy failure",
                )
            if failed == attempts:
                raise CopyError(
                    src_name, dst_name, nbytes, failed,
                    "injected copy fault persisted past the retry budget",
                )

        if real_pair and nbytes:  # real devices only ever copy synchronously
            self._memcpy(source, source_offset, dest, dest_offset, nbytes)
            if self.injector is not None:
                extra, completes_at = self._verify_and_retry(
                    source, source_offset, dest, dest_offset, nbytes,
                    attempt_seconds, corrupt,
                )
                seconds += extra

        record = _new_tuple(CopyRecord, (
            src_name, dst_name, nbytes, threads, seconds, nt_stores, completes_at
        ))
        seq = self._copy_seq = self._copy_seq + 1
        self.tracer.copy(
            src_name, dst_name, nbytes, threads, seconds, completes_at, seq
        )
        return record

    def _verify_and_retry(
        self,
        source: Heap,
        source_offset: int,
        dest: Heap,
        dest_offset: int,
        nbytes: int,
        attempt_seconds: float,
        corrupt: int,
    ) -> tuple[float, float]:
        """Verify the destination against the source; redo on mismatch.

        ``corrupt`` pending injected-corruption faults each flip one
        destination byte before the verify pass, simulating a transfer that
        completed but delivered bad data. Each redo is charged like a fresh
        transfer. Returns ``(extra_seconds, completes_at)``; raises
        :class:`CopyError` when mismatches persist past the retry budget.
        """
        extra = 0.0
        mismatches = 0
        while True:
            if corrupt > 0:
                corrupt -= 1
                dest.view(dest_offset, nbytes)[0] ^= 0xFF
            src = source.view(source_offset, nbytes)
            dst = dest.view(dest_offset, nbytes)
            if np.array_equal(src, dst):
                return extra, self.clock.now
            mismatches += 1
            if mismatches > MAX_COPY_RETRIES:
                raise CopyError(
                    source.name,
                    dest.name,
                    nbytes,
                    mismatches,
                    "verification mismatch persisted past the retry budget",
                )
            self.clock.advance(attempt_seconds, MOVEMENT)
            extra += attempt_seconds
            source.traffic.record_read(nbytes)
            dest.traffic.record_write(nbytes)
            self.tracer.copy_retry(
                self.clock.now,
                source.name,
                dest.name,
                nbytes,
                mismatches,
                "verification mismatch",
            )
            self._memcpy(source, source_offset, dest, dest_offset, nbytes)

    def _memcpy(
        self,
        source: Heap,
        source_offset: int,
        dest: Heap,
        dest_offset: int,
        nbytes: int,
    ) -> None:
        src = source.view(source_offset, nbytes)
        dst = dest.view(dest_offset, nbytes)
        if nbytes < PARALLEL_THRESHOLD:
            dst[:] = src
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=POOL_WORKERS,
                thread_name_prefix="cachedarrays-copy",
            )
        chunk = -(-nbytes // POOL_WORKERS)  # ceil division

        def copy_chunk(start: int) -> None:
            stop = min(start + chunk, nbytes)
            dst[start:stop] = src[start:stop]

        futures = [
            self._pool.submit(copy_chunk, start) for start in range(0, nbytes, chunk)
        ]
        for future in futures:
            future.result()

    @property
    def pending_until(self) -> float:
        """Virtual time at which every DMA channel goes idle (async mode)."""
        return max(self._channel_free_at.values(), default=0.0)

    def drain_wait(self) -> float:
        """Seconds the caller must wait (from now) for all queued copies.

        Clamped at the source: accumulated ``completes_at`` arithmetic can
        drift a few ULPs past the clock, and charging those residues as
        real waits would litter traces with denormal-length stalls.
        """
        return snap_residue(self.pending_until - self.clock.now, self.clock.now)

    def note_pending(self, completes_at: float, label: str) -> None:
        """Register an in-flight copy's payload for stall attribution.

        Tracing-only bookkeeping — callers should skip it when the tracer
        is disabled so the untraced hot path stays allocation-free.
        """
        self._inflight.append((completes_at, label))

    def drop_pending(self, prefix: str) -> int:
        """Forget in-flight stall-attribution labels starting with ``prefix``.

        Tenant detach calls this with the tenant's ``name/`` namespace so a
        departed tenant's queued copies can no longer be blamed for stalls.
        The DMA-channel occupancy itself is *not* rewound: the modelled bus
        time was really spent. Returns the number of labels dropped.
        """
        if not prefix:
            return 0
        before = len(self._inflight)
        self._inflight = [
            (t, label) for t, label in self._inflight
            if not label.startswith(prefix)
        ]
        return before - len(self._inflight)

    def pending_labels(self, now: float) -> list[tuple[str, float]]:
        """``(label, remaining_seconds)`` per copy still in flight at ``now``.

        Prunes entries that have already landed, so the list stays bounded
        by the DMA channels' queue depth.
        """
        alive = [(t, label) for t, label in self._inflight if t > now]
        self._inflight = alive
        return [(label, t - now) for t, label in alive]

    def shutdown(self) -> None:
        """Tear down the worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- snapshot/restore ---------------------------------------------------
    # Two members are not pickled: the lazily-created ThreadPoolExecutor
    # (rebuilt on demand by ``_memcpy``), which cannot cross a process
    # boundary, and the pair plans, which are rebuilt on the first copy
    # after a restore from the restored heaps. Both are derived state;
    # dropping them changes no simulated result.

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state["_pool"] = None
        state["_plans"] = {}
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)

    def __enter__(self) -> "CopyEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

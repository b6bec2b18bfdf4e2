"""The copy engine: traffic-shaped bulk copies between heaps.

Section V credits much of CachedArrays' win to *traffic shaping*: NVRAM
traffic is "the result of explicit, well-shaped memory copies" using
non-temporal stores and a thread count tuned to the destination device,
instead of the haphazard line-sized fills/writebacks of the hardware cache.

The engine does three things per copy:

1. **Accounting** — read bytes on the source heap's counters, write bytes on
   the destination's (what Figure 5 plots).
2. **Virtual time** — advances the shared clock by the bandwidth-modelled
   duration, with the per-destination optimal thread count (write bandwidth
   to Optane *decreases* past ~4 threads, Section V-d) and non-temporal
   stores toward NVRAM.
3. **Data** — when both devices are real, an honest memcpy (chunked across a
   thread pool above a size threshold, mirroring the paper's multi-threaded
   engine; numpy releases the GIL for large block copies).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from repro.errors import ConfigurationError, CopyError
from repro.memory.device import MemoryKind
from repro.memory.heap import Heap
from repro.sim.bandwidth import DegradedBandwidth, copy_time, optimal_copy_threads
from repro.sim.clock import SimClock, snap_residue
from repro.telemetry import trace as tracing
from repro.units import MiB

__all__ = ["CopyEngine", "CopyRecord"]

MOVEMENT = "movement"  # clock busy-category for data movement


class CopyRecord(NamedTuple):
    """Outcome of one bulk copy, for logs and tests.

    ``completes_at`` is the virtual time the destination's contents become
    valid: equal to "now" for synchronous copies, later for asynchronous
    ones queued on the DMA channel. Always populated — consumers (ledger,
    export) never need to special-case a missing value. A tuple, built once
    per copy: a frozen dataclass sets each field through
    ``object.__setattr__``.
    """

    source: str
    dest: str
    nbytes: int
    threads: int
    seconds: float
    nt_stores: bool
    completes_at: float


class CopyEngine:
    """Bandwidth-modelled, traffic-accounted copies between heap regions."""

    def __init__(
        self,
        clock: SimClock,
        *,
        max_threads: int = 28,
        per_transfer_overhead: float = 0.0,
        async_mode: bool = False,
        parallel_threshold: int = 8 * MiB,
        pool_workers: int = 4,
        tracer: "tracing.Tracer | tracing.NullTracer | None" = None,
        injector: object | None = None,
        max_copy_retries: int = 2,
    ) -> None:
        if max_threads < 1:
            raise ConfigurationError(f"max_threads must be >= 1, got {max_threads}")
        if per_transfer_overhead < 0:
            raise ConfigurationError(
                f"per_transfer_overhead must be >= 0, got {per_transfer_overhead}"
            )
        if max_copy_retries < 0:
            raise ConfigurationError(
                f"max_copy_retries must be >= 0, got {max_copy_retries}"
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
        self.parallel_threshold = parallel_threshold
        self._pool_workers = pool_workers
        self._pool: ThreadPoolExecutor | None = None
        self._thread_cache: dict[tuple[int, int], tuple[int, bool]] = {}
        self.records: list[CopyRecord] = []
        self.keep_records = False
        # Fault-injection seam (docs/robustness.md): duck-typed object with
        # ``copy_plan(source, dest, nbytes)``; the engine never imports
        # repro.faults. Retry-with-verification only runs when an injector is
        # present, so fault-free runs pay nothing.
        self.injector = injector
        self.max_copy_retries = max_copy_retries
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
            source.device.bandwidth,
            dest.device.bandwidth,
            self.max_threads,
            nt_stores=nt_stores,
        )

    @staticmethod
    def _use_nt_stores(dest: Heap) -> bool:
        # Non-temporal stores are crucial for NVRAM write bandwidth
        # (Section V-d); toward DRAM they avoid cache pollution for bulk
        # copies, so the engine always streams.
        return True

    def _tune_pair(self, source: Heap, dest: Heap) -> tuple[int, bool]:
        """The thread memo's miss path: a device pair's worker count and
        store kind, remembered per pair of bandwidth models."""
        nt_stores = self._use_nt_stores(dest)
        tuning = (self.threads_for(source, dest, nt_stores=nt_stores), nt_stores)
        key = (id(source.device.bandwidth), id(dest.device.bandwidth))
        self._thread_cache[key] = tuning
        return tuning

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
        trace event), injected bandwidth degradation derates the destination
        model, and — on real-backed device pairs — the destination is verified
        against the source after the memcpy so injected silent corruption is
        caught and redone. Faults that persist past ``max_copy_retries``
        raise :class:`~repro.errors.CopyError` after charging what was spent:
        loud failure, never a silently-corrupt destination.
        """
        if nbytes < 0:
            raise ConfigurationError(f"copy size must be non-negative, got {nbytes}")
        src_device = source.device
        dst_device = dest.device
        src_name = src_device.name
        dst_name = dst_device.name
        src_real = src_device.is_real
        dst_real = dst_device.is_real
        if self.async_mode:
            if src_real or dst_real:
                raise ConfigurationError(
                    "asynchronous movement is a timing model; it requires "
                    "virtual devices"
                )
        elif src_real != dst_real:
            raise ConfigurationError(
                "cannot copy between a real and a virtual device: "
                f"{src_name!r} -> {dst_name!r}"
            )
        src_model = src_device.bandwidth
        dest_model = dst_device.bandwidth
        try:
            threads, nt_stores = self._thread_cache[id(src_model), id(dest_model)]
        except KeyError:
            threads, nt_stores = self._tune_pair(source, dest)

        fault = None
        if self.injector is not None:
            fault = self.injector.copy_plan(src_name, dst_name, nbytes)
            if fault.clean:
                fault = None
        if fault is not None and fault.slowdown > 1.0:
            dest_model = DegradedBandwidth(inner=dest_model, factor=fault.slowdown)

        attempt_seconds = copy_time(
            src_model,
            dest_model,
            nbytes,
            threads,
            nt_stores=nt_stores,
        )
        if nbytes:
            attempt_seconds += self.per_transfer_overhead

        real_pair = src_real and dst_real
        failures = fault.failures if fault is not None else 0
        corrupt = fault.corrupt if fault is not None else 0
        if corrupt and not real_pair:
            # Virtual devices carry no payload to corrupt; model the
            # verification mismatch as a failed-and-retried attempt instead,
            # so timing-mode chaos runs exercise the same retry budget.
            failures += corrupt
            corrupt = 0

        exhausted = failures > self.max_copy_retries
        failed_attempts = self.max_copy_retries + 1 if exhausted else failures
        attempts = failed_attempts + (0 if exhausted else 1)
        seconds = attempt_seconds * attempts
        for _ in range(attempts):
            source.traffic.record_read(nbytes)
            dest.traffic.record_write(nbytes)

        if self.async_mode:
            free_at = self._channel_free_at.get(dst_name, 0.0)
            start = max(self.clock.now, free_at)
            completes_at = start + seconds
            self._channel_free_at[dst_name] = completes_at
        else:
            self.clock.advance(seconds, MOVEMENT)
            completes_at = self.clock.now

        for attempt in range(1, failed_attempts + 1):
            self.tracer.copy_retry(
                completes_at - seconds + attempt_seconds * attempt,
                src_name,
                dst_name,
                nbytes,
                attempt,
                "injected copy failure",
            )
        if exhausted:
            raise CopyError(
                src_name,
                dst_name,
                nbytes,
                failed_attempts,
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

        record = CopyRecord(
            src_name, dst_name, nbytes, threads, seconds, nt_stores, completes_at
        )
        if self.keep_records:
            self.records.append(record)
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
            if mismatches > self.max_copy_retries:
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
        if nbytes < self.parallel_threshold or self._pool_workers <= 1:
            dst[:] = src
            return
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._pool_workers,
                thread_name_prefix="cachedarrays-copy",
            )
        chunk = -(-nbytes // self._pool_workers)  # ceil division

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
    # Two members cannot cross a process boundary: the lazily-created
    # ThreadPoolExecutor (rebuilt on demand by ``_memcpy``) and the thread
    # tuning cache, whose keys are ``id()``s of bandwidth-model objects —
    # meaningless in another process. Both are derived state; dropping them
    # changes no simulated result.

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state["_pool"] = None
        state["_thread_cache"] = {}
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)

    def __enter__(self) -> "CopyEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

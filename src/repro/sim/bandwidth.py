"""Device bandwidth models for DRAM and Optane-class NVRAM.

The paper's results hinge on four device characteristics (Section III-D):

* NVRAM writes are slow and low-bandwidth; reads are "not much slower" than
  DRAM reads.
* Non-temporal stores are crucial for NVRAM write performance (Section V-d).
* DRAM-to-NVRAM copy bandwidth *decreases* with increasing parallelism
  (Section V-d, citing Izraelevitz et al. [6] and Hildebrand et al. [4]).
* Small transfers pay per-transfer overhead, so bus utilisation depends on
  transfer size (the ResNet-vs-VGG story of Figure 6).

This module encodes those characteristics as composable bandwidth models. The
numeric presets come from the published Optane DC characterisations the paper
cites: per-socket six-DIMM aggregates of roughly 39 GB/s sequential read and
13 GB/s non-temporal sequential write, with write bandwidth degrading past
about four concurrent writer threads, and cached (temporal) writes reaching
only about a third of the non-temporal rate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

from repro.units import GB

__all__ = [
    "TransferKind",
    "BandwidthModel",
    "ConstantBandwidth",
    "DegradedBandwidth",
    "ParallelismCurveBandwidth",
    "dram_bandwidth_model",
    "optane_bandwidth_model",
]


class TransferKind(enum.Enum):
    """How a transfer hits the device; selects the bandwidth curve."""

    READ = "read"
    WRITE = "write"
    WRITE_NT = "write_nt"  # streaming non-temporal stores


# Enum members bound once: a class-attribute read of a member is a
# Python-level lookup on every use.
_READ, _WRITE, _WRITE_NT = TransferKind.READ, TransferKind.WRITE, TransferKind.WRITE_NT
_READ_KEY = _READ._value_


@dataclass(frozen=True)
class BandwidthModel:
    """Base interface: map (kind, threads) to a peak rate, and a transfer's
    size to its time.

    A transfer of ``nbytes`` runs at the effective bandwidth ``nbytes /
    (nbytes / peak + setup_latency)`` B/s, which folds in the fixed
    per-transfer overhead so that tiny transfers never see peak bandwidth;
    :meth:`transfer_time` and :func:`copy_time` are the two users of that
    formula.
    """

    setup_latency: float = 0.0  # seconds of fixed cost per transfer

    def peak(self, kind: TransferKind, threads: int = 1) -> float:
        raise NotImplementedError

    @cached_property
    def _peak_memo(self) -> dict[tuple[str, int], float]:
        """``peak`` per ``(kind._value_, threads)``, filled by :meth:`_remember_peak`.

        ``peak`` is pure in its arguments (every model is a frozen
        dataclass), so each pair is computed once per instance and the
        timing paths read it with one subscript, in their own frame. Keyed
        on the member's value string: ``Enum.__hash__`` and the ``.value``
        descriptor are both Python-level calls. The memo only stores values
        ``peak`` returned, so the arithmetic — and any validation error — is
        unchanged. ``cached_property`` writes the instance ``__dict__``
        directly, around the frozen ``__setattr__``.
        """
        return {}

    def _remember_peak(self, kind: TransferKind, threads: int) -> float:
        """The memo's miss path."""
        peak = self._peak_memo[kind._value_, threads] = self.peak(kind, threads)
        return peak

    def transfer_time(self, kind: TransferKind, nbytes: int, threads: int = 1) -> float:
        """Modelled seconds to move ``nbytes`` with ``threads`` workers:
        ``nbytes`` over the effective bandwidth."""
        if nbytes <= 0:
            if nbytes == 0:
                return 0.0
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        try:
            peak = self._peak_memo[kind._value_, threads]
        except KeyError:
            peak = self._remember_peak(kind, threads)
        return nbytes / (nbytes / (nbytes / peak + self.setup_latency))


@dataclass(frozen=True)
class ConstantBandwidth(BandwidthModel):
    """Flat read/write bandwidth, independent of thread count.

    Suitable for DRAM in the regime the paper operates in (a single socket is
    easily saturated by the 28-thread copy engine, and DRAM does not exhibit
    Optane's contention collapse).
    """

    read: float = 100 * GB
    write: float = 80 * GB

    def peak(self, kind: TransferKind, threads: int = 1) -> float:
        if kind is TransferKind.READ:
            return self.read
        return self.write


@dataclass(frozen=True)
class ParallelismCurveBandwidth(BandwidthModel):
    """Bandwidth with an Optane-style concurrency curve.

    Bandwidth ramps up to ``best_threads`` and then *degrades* with additional
    concurrency (iMC write-pending-queue contention and XPBuffer thrash in the
    physical device): ``bw(t) = peak * min(t, best) / best / (1 + slope *
    max(0, t - best))``. Temporal (cached) writes are additionally derated by
    ``temporal_write_derate`` because every cached store incurs a
    read-modify-write of the 256 B Optane block.
    """

    read_peak: float = 39 * GB
    write_peak: float = 13 * GB
    best_threads_read: int = 16
    best_threads_write: int = 4
    degradation_slope: float = 0.05
    temporal_write_derate: float = 2.5

    def peak(self, kind: TransferKind, threads: int = 1) -> float:
        if threads < 1:
            raise ValueError(f"thread count must be >= 1, got {threads}")
        if kind is TransferKind.READ:
            base, best = self.read_peak, self.best_threads_read
        else:
            base, best = self.write_peak, self.best_threads_write
        ramp = min(threads, best) / best
        excess = max(0, threads - best)
        bandwidth = base * ramp / (1.0 + self.degradation_slope * excess)
        if kind is TransferKind.WRITE:
            bandwidth /= self.temporal_write_derate
        return bandwidth


@dataclass(frozen=True)
class DegradedBandwidth(BandwidthModel):
    """A bandwidth model derated by a constant factor (degraded-link fault).

    The fault injector wraps a copy destination's model in this to simulate
    a congested or failing bus: every curve keeps its shape, scaled down by
    ``factor``. Timing-only — data and results are unaffected, which is
    exactly what the chaos suite asserts for bandwidth faults.
    """

    inner: BandwidthModel = None  # type: ignore[assignment]
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.inner is None:
            raise ValueError("DegradedBandwidth requires an inner model")
        if self.factor < 1.0:
            raise ValueError(f"derate factor must be >= 1.0, got {self.factor}")
        object.__setattr__(self, "setup_latency", self.inner.setup_latency)

    def peak(self, kind: TransferKind, threads: int = 1) -> float:
        return self.inner.peak(kind, threads) / self.factor


def dram_bandwidth_model(
    *,
    read: float = 100 * GB,
    write: float = 80 * GB,
    setup_latency: float = 1e-6,
) -> ConstantBandwidth:
    """Single-socket DDR4-2933 six-channel DRAM preset."""
    return ConstantBandwidth(read=read, write=write, setup_latency=setup_latency)


def optane_bandwidth_model(
    *,
    read_peak: float = 39 * GB,
    write_peak: float = 13 * GB,
    setup_latency: float = 3e-6,
) -> ParallelismCurveBandwidth:
    """Single-socket 6x256 GiB Optane DC (Apache Pass) preset.

    Numbers follow the characterisation in Izraelevitz et al. [6]: sequential
    read ~39 GB/s, non-temporal sequential write ~13 GB/s peaking near four
    writer threads, cached writes roughly 2.5x slower than non-temporal.
    """
    return ParallelismCurveBandwidth(
        read_peak=read_peak,
        write_peak=write_peak,
        setup_latency=setup_latency,
    )


def copy_time(
    source: BandwidthModel,
    dest: BandwidthModel,
    nbytes: int,
    threads: int = 1,
    *,
    nt_stores: bool = True,
) -> float:
    """Modelled seconds for a traffic-shaped bulk copy of ``nbytes``.

    A copy thread alternates cache-line loads from ``source`` with
    (non-temporal) stores to ``dest``; non-temporal stores do not pipeline
    behind loads, so the achieved rate is the harmonic combination
    ``1 / (1/read_bw + 1/write_bw)`` of the two effective bandwidths rather
    than the optimistic ``min``, and the copy takes ``nbytes`` over it.
    This matches the measured DRAM<->Optane copy rates in [4], [6]
    (~10 GB/s toward NVRAM, ~15-25 GB/s from it) and preserves their
    headline anomaly: copy bandwidth *decreases* with extra parallelism.
    """
    if nbytes <= 0:
        if nbytes == 0:
            return 0.0
        raise ValueError(f"transfer size must be positive, got {nbytes}")
    try:
        read_peak = source._peak_memo[_READ_KEY, threads]
    except KeyError:
        read_peak = source._remember_peak(_READ, threads)
    read_bw = nbytes / (nbytes / read_peak + source.setup_latency)
    write_kind = _WRITE_NT if nt_stores else _WRITE
    try:
        write_peak = dest._peak_memo[write_kind._value_, threads]
    except KeyError:
        write_peak = dest._remember_peak(write_kind, threads)
    write_bw = nbytes / (nbytes / write_peak + dest.setup_latency)
    return nbytes / (1.0 / (1.0 / read_bw + 1.0 / write_bw))


def optimal_copy_threads(
    source: BandwidthModel,
    dest: BandwidthModel,
    max_threads: int,
    *,
    nt_stores: bool = True,
    probe_limit: int = 64,
) -> int:
    """Pick the thread count maximising the *pair's* copy rate.

    The paper's copy engine is "highly multi-threaded, specifically targeting
    large memory sizes"; toward Optane the sweet spot is small (~4-8
    threads, because write bandwidth collapses beyond that), from Optane it
    is larger. We probe the model rather than hard-coding, so custom device
    models keep working.
    """
    if max_threads < 1:
        raise ValueError(f"max_threads must be >= 1, got {max_threads}")
    write_kind = TransferKind.WRITE_NT if nt_stores else TransferKind.WRITE
    best_threads, best_rate = 1, -math.inf
    for threads in range(1, min(max_threads, probe_limit) + 1):
        read_bw = source.peak(TransferKind.READ, threads)
        write_bw = dest.peak(write_kind, threads)
        rate = 1.0 / (1.0 / read_bw + 1.0 / write_bw)
        if rate > best_rate:
            best_threads, best_rate = threads, rate
    return best_threads

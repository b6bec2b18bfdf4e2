"""Kernel cost model: overlap-aware time from operand placement.

A kernel's modelled execution time separates memory service time by device
class:

``t = max(flops / peak_flops, t_dram) + t_nvram``

DRAM traffic overlaps with compute (deep MLP, prefetchers — the classic
roofline), but NVRAM traffic does not: Optane's ~300 ns loads and
write-pending-queue stalls leave cores waiting, which is exactly why the
paper finds some kernels "sensitive to the bandwidth of their read-only
arguments" (Section V) and why all-NVRAM execution is 3-4x slower (Figure 7).
The same rule prices the 2LM baseline's cache fills and writebacks, so the
comparison stays apples-to-apples.

Kernels run on all cores (``kernel_threads``), which puts NVRAM writes deep
into the bandwidth-degradation regime of the Optane model — oneDNN kernels
are not optimised for writing to NVRAM (Section V-d).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.device import MemoryDevice, MemoryKind
from repro.sim.bandwidth import TransferKind

__all__ = ["ExecutionParams", "KernelTiming", "kernel_timing"]

# Enum members bound once: a class-attribute read of a member is a
# Python-level lookup, and the sweep below makes several per operand.
_READ, _WRITE, _WRITE_NT = TransferKind.READ, TransferKind.WRITE, TransferKind.WRITE_NT
_NVRAM = MemoryKind.NVRAM


@dataclass(frozen=True)
class ExecutionParams:
    """Machine parameters of the modelled compute node.

    ``peak_flops`` approximates a 28-core Cascade Lake socket running oneDNN
    fp32 kernels (~70% of the 4.3 TFLOP/s AVX-512 peak).
    """

    peak_flops: float = 3.0e12
    kernel_threads: int = 28
    # oneDNN writes large outputs with streaming stores, but its blocked
    # parallel decomposition presents more concurrent write streams than
    # Optane's sweet spot — modelled as NT writes at this concurrency.
    nvram_write_threads: int = 8
    # Fixed dispatch cost per kernel (runtime + primitive setup).
    launch_overhead: float = 2e-3
    # Paranoia level: every N kernels the adapter runs the manager's (and
    # policy's) invariant checks and traces an ``invariant_check`` event.
    # 0 disables the checks entirely (the default; they are O(heap) each).
    paranoia: int = 0


class KernelTiming:
    """Decomposed kernel time; the executor advances the clock by `total`.

    ``fixed`` is the per-operand setup-latency share of the memory service
    time (one ``setup_latency`` term per touched operand). It is carried for
    attribution only — ``total`` never reads it — so the bottleneck taxonomy
    can split exposed memory time into a size-proportional (bandwidth) part
    and a count-proportional (latency) part.

    A slotted value built once per kernel: ``memory`` and ``total`` are
    computed at construction, not on every read, and nothing assigns a
    field after it.
    """

    __slots__ = ("compute", "dram", "nvram", "fixed", "memory", "total")

    def __init__(
        self, compute: float, dram: float, nvram: float, fixed: float = 0.0
    ) -> None:
        self.compute = compute
        self.dram = dram
        self.nvram = nvram
        self.fixed = fixed
        self.memory = dram + nvram
        # DRAM traffic overlaps with compute; NVRAM traffic stalls.
        self.total = max(compute, dram) + nvram

    def _fields(self) -> tuple[float, float, float, float]:
        return (self.compute, self.dram, self.nvram, self.fixed)

    def __eq__(self, other: object) -> bool:
        if type(other) is not KernelTiming:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"KernelTiming(compute={self.compute!r}, dram={self.dram!r}, "
            f"nvram={self.nvram!r}, fixed={self.fixed!r})"
        )


def kernel_timing(
    flops: float,
    reads: list[tuple[MemoryDevice, int]],
    writes: list[tuple[MemoryDevice, int]],
    params: ExecutionParams,
    *,
    read_sensitivity: float = 1.0,
) -> KernelTiming:
    """Timing for operands resolved to their devices.

    ``reads``/``writes`` carry *effective* byte counts (logical size already
    scaled by the kernel's traffic factor). ``read_sensitivity`` is the
    fraction of NVRAM *read* service time exposed as a stall; the hidden
    remainder overlaps with compute like DRAM traffic. NVRAM writes always
    stall (write-pending-queue backpressure).
    """
    if not 0.0 <= read_sensitivity <= 1.0:
        raise ValueError(f"read_sensitivity must be in [0,1]: {read_sensitivity}")
    compute = params.launch_overhead + (
        flops / params.peak_flops if flops > 0 else 0.0
    )
    dram = 0.0
    nvram = 0.0
    fixed = 0.0
    threads = params.kernel_threads
    for device, nbytes in reads:
        if nbytes <= 0:
            continue
        model = device.bandwidth
        seconds = model.transfer_time(_READ, nbytes, threads)
        fixed += model.setup_latency
        if device.kind is _NVRAM:
            nvram += seconds * read_sensitivity
            dram += seconds * (1.0 - read_sensitivity)
        else:
            dram += seconds
    for device, nbytes in writes:
        if nbytes <= 0:
            continue
        model = device.bandwidth
        fixed += model.setup_latency
        if device.kind is _NVRAM:
            nvram += model.transfer_time(_WRITE_NT, nbytes, params.nvram_write_threads)
        else:
            dram += model.transfer_time(_WRITE, nbytes, threads)
    return KernelTiming(compute, dram, nvram, fixed)

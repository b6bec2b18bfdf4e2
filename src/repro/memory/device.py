"""Memory devices: capacity, kind, bandwidth model, optional real arena.

A :class:`MemoryDevice` stands in for one memory pool of the evaluation
machine — the 192 GiB of socket-local DRAM or the 1.5 TB of Optane NVRAM. Two
backing modes exist:

* **virtual** (default): only offsets and sizes are tracked, so experiments
  run at the paper's literal multi-hundred-GB footprints without touching
  host memory;
* **real**: the arena is an actual ``numpy`` byte buffer, region contents are
  honest bytes, and the copy engine does honest memcpys — used by the data-
  integrity tests and the real-compute training examples.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.bandwidth import (
    BandwidthModel,
    dram_bandwidth_model,
    optane_bandwidth_model,
)
from repro.units import format_size, parse_size

__all__ = ["MemoryKind", "MemoryDevice"]


class MemoryKind(enum.Enum):
    """Coarse device class; policies key their heuristics off this."""

    DRAM = "dram"
    NVRAM = "nvram"
    GENERIC = "generic"


class MemoryDevice:
    """One memory pool: name, kind, capacity, bandwidth model, backing."""

    def __init__(
        self,
        name: str,
        kind: MemoryKind,
        capacity: int | str,
        bandwidth: BandwidthModel,
        *,
        real: bool = False,
    ) -> None:
        self.name = name
        self.kind = kind
        self.capacity = parse_size(capacity)
        if self.capacity <= 0:
            raise ConfigurationError(f"device {name!r} needs positive capacity")
        self.bandwidth = bandwidth
        self._arena: np.ndarray | None = None
        if real:
            self._arena = np.zeros(self.capacity, dtype=np.uint8)

    @classmethod
    def dram(
        cls, capacity: int | str, *, name: str = "DRAM", real: bool = False
    ) -> "MemoryDevice":
        """A DDR4-class fast device with the default DRAM preset."""
        return cls(name, MemoryKind.DRAM, capacity, dram_bandwidth_model(), real=real)

    @classmethod
    def nvram(
        cls, capacity: int | str, *, name: str = "NVRAM", real: bool = False
    ) -> "MemoryDevice":
        """An Optane-class slow device with the published bandwidth curve."""
        return cls(
            name, MemoryKind.NVRAM, capacity, optane_bandwidth_model(), real=real
        )

    @classmethod
    def cxl(
        cls, capacity: int | str, *, name: str = "CXL", real: bool = False
    ) -> "MemoryDevice":
        """A CXL-attached DRAM expander (Section VI's 'local/remote memory').

        Symmetric-ish DRAM media behind a CXL.mem link: roughly half of
        local-DRAM bandwidth and a higher per-transfer latency, but none of
        Optane's write collapse — so policies tuned for NVRAM still work,
        they just leave some headroom (the point of the paper's
        policy/mechanism separation).
        """
        from repro.sim.bandwidth import dram_bandwidth_model
        from repro.units import GB

        model = dram_bandwidth_model(
            read=45 * GB, write=40 * GB, setup_latency=2e-6
        )
        return cls(name, MemoryKind.GENERIC, capacity, model, real=real)

    @property
    def is_real(self) -> bool:
        return self._arena is not None

    def resize_arena(self, new_capacity: int) -> None:
        """Rebuild the real backing buffer at ``new_capacity`` bytes.

        The common prefix is preserved (a real deployment would
        mremap/munmap the tail); the caller — :meth:`Heap.grow`/``shrink``
        — is responsible for having made the truncated tail free first.
        Virtual devices have nothing to do.
        """
        if self._arena is None:
            return
        arena = np.zeros(new_capacity, dtype=np.uint8)
        keep = min(new_capacity, self.capacity, len(self._arena))
        arena[:keep] = self._arena[:keep]
        self._arena = arena

    def view(self, offset: int, size: int) -> np.ndarray:
        """A zero-copy byte view of ``[offset, offset+size)`` (real mode only)."""
        if self._arena is None:
            raise ConfigurationError(
                f"device {self.name!r} is virtual; no data can be viewed"
            )
        if offset < 0 or size < 0 or offset + size > self.capacity:
            raise ConfigurationError(
                f"view [{offset}, {offset + size}) outside device "
                f"{self.name!r} of {self.capacity} bytes"
            )
        return self._arena[offset : offset + size]

    def __repr__(self) -> str:
        backing = "real" if self.is_real else "virtual"
        return (
            f"MemoryDevice({self.name!r}, {self.kind.value}, "
            f"{format_size(self.capacity, decimal=False)}, {backing})"
        )

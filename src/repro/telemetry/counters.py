"""Per-device traffic counters (the simulated uncore PMU).

Each :class:`TrafficCounters` instance tracks read and write bytes for one
memory device, exactly what the paper samples from hardware counters to build
Figure 5. Counters are monotonic; experiments diff snapshots across an
iteration window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import format_size

__all__ = ["TrafficCounters", "TrafficSnapshot"]


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable point-in-time copy of one device's traffic counters."""

    device: str
    read_bytes: int
    write_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def __sub__(self, earlier: "TrafficSnapshot") -> "TrafficSnapshot":
        if earlier.device != self.device:
            raise ValueError(
                f"cannot diff snapshots of {earlier.device!r} and {self.device!r}"
            )
        return TrafficSnapshot(
            device=self.device,
            read_bytes=self.read_bytes - earlier.read_bytes,
            write_bytes=self.write_bytes - earlier.write_bytes,
        )

    def __str__(self) -> str:
        return (
            f"{self.device}: read {format_size(self.read_bytes)}, "
            f"write {format_size(self.write_bytes)}"
        )


class TrafficCounters:
    """Monotonic read/write byte counters for a single device."""

    def __init__(self, device: str) -> None:
        self.device = device
        self.read_bytes = 0
        self.write_bytes = 0

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    def record_read(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"read byte count must be non-negative, got {nbytes}")
        self.read_bytes += nbytes

    def record_write(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"write byte count must be non-negative, got {nbytes}")
        self.write_bytes += nbytes

    def snapshot(self) -> TrafficSnapshot:
        return TrafficSnapshot(
            device=self.device,
            read_bytes=self.read_bytes,
            write_bytes=self.write_bytes,
        )

    def reset(self) -> None:
        """Zero the counters (only between experiments, never mid-run)."""
        self.read_bytes = 0
        self.write_bytes = 0

    def __repr__(self) -> str:
        return f"TrafficCounters({self.snapshot()})"

"""Derived statistics: bus utilisation and simple series summaries.

Figure 6 reports the *average utilisation of the DRAM bus* over one training
iteration: bytes actually moved divided by what the bus could have moved in
the elapsed window. :class:`BusUtilization` computes that from a traffic
snapshot delta, the window length, and the device's peak bandwidth.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from repro.telemetry.counters import TrafficSnapshot

__all__ = ["BusUtilization", "summarize_series"]


@dataclass(frozen=True)
class BusUtilization:
    """Average fraction of a device bus's peak bandwidth actually used.

    ``utilization`` is always in [0, 1]. A physical bus cannot exceed its
    peak, so a raw ratio above 1 means the bandwidth model and the traffic
    accounting disagree — :meth:`from_traffic` warns and clamps, preserving
    the raw ratio in ``raw_utilization`` for diagnosis.
    """

    device: str
    utilization: float  # clamped to [0, 1]
    bytes_moved: int
    window: float
    raw_utilization: float = 0.0  # unclamped ratio (> 1 flags a mis-set model)

    @classmethod
    def from_traffic(
        cls,
        traffic: TrafficSnapshot,
        window_seconds: float,
        peak_bandwidth: float,
    ) -> "BusUtilization":
        if window_seconds <= 0:
            raise ValueError(f"window must be positive, got {window_seconds}")
        if peak_bandwidth <= 0:
            raise ValueError(f"peak bandwidth must be positive, got {peak_bandwidth}")
        moved = traffic.total_bytes
        raw = moved / (window_seconds * peak_bandwidth)
        if raw > 1.0:
            warnings.warn(
                f"{traffic.device} bus utilisation {raw:.3f} exceeds 1.0: "
                "the bandwidth model and traffic accounting disagree "
                "(mis-set peak bandwidth?); clamping to 1.0",
                RuntimeWarning,
                stacklevel=2,
            )
        return cls(
            device=traffic.device,
            utilization=min(raw, 1.0),
            bytes_moved=moved,
            window=window_seconds,
            raw_utilization=raw,
        )

    def __str__(self) -> str:
        return f"{self.device} bus: {100.0 * self.utilization:.1f}% avg utilisation"


@dataclass(frozen=True)
class SeriesSummary:
    """Mean/min/max/std of a numeric series (population std)."""

    count: int
    mean: float
    minimum: float
    maximum: float
    std: float


def summarize_series(values: list[float]) -> SeriesSummary:
    """Summarise a series; raises on empty input to catch silent no-data bugs."""
    if not values:
        raise ValueError("cannot summarise an empty series")
    count = len(values)
    mean = sum(values) / count
    variance = sum((v - mean) ** 2 for v in values) / count
    return SeriesSummary(
        count=count,
        mean=mean,
        minimum=min(values),
        maximum=max(values),
        std=math.sqrt(variance),
    )

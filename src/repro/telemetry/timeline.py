"""Time-series sampling of simulation state (heap occupancy, utilisation).

Figure 3 plots resident heap memory through one training iteration; the
executor samples each heap's occupancy into a :class:`Timeline` at every
kernel boundary, producing exactly that series against virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["Timeline", "TimelineSample"]


@dataclass(frozen=True)
class TimelineSample:
    """One (virtual time, value) observation, with an optional label."""

    time: float
    value: float
    label: str = ""


class Timeline:
    """An append-only series of samples ordered by virtual time."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []
        self._labels: list[str] = []

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TimelineSample]:
        for time, value, label in zip(self._times, self._values, self._labels):
            yield TimelineSample(time, value, label)

    def record(self, time: float, value: float, label: str = "") -> None:
        """Append a sample; time must be non-decreasing."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"timeline {self.name!r}: time went backwards "
                f"({time} < {self._times[-1]})"
            )
        self._times.append(time)
        self._values.append(value)
        self._labels.append(label)

    def times(self) -> list[float]:
        return list(self._times)

    def values(self) -> list[float]:
        return list(self._values)

    def peak(self) -> float:
        """Maximum observed value (0.0 when empty)."""
        return max(self._values, default=0.0)

    def last(self) -> float:
        """Most recent value (0.0 when empty)."""
        return self._values[-1] if self._values else 0.0

    def to_dict(self) -> dict:
        """A JSON-serialisable view: ``{"name": ..., "samples": [[t, v, label], ...]}``.

        The Chrome-trace exporter uses this to emit occupancy/traffic series
        as counter tracks (the Figure 3/6 series).
        """
        return {
            "name": self.name,
            "samples": [
                [t, v, label]
                for t, v, label in zip(self._times, self._values, self._labels)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Timeline":
        """Rebuild a timeline from :meth:`to_dict` output (exact round-trip)."""
        timeline = cls(data["name"])
        for sample in data["samples"]:
            time, value = sample[0], sample[1]
            label = sample[2] if len(sample) > 2 else ""
            timeline.record(time, value, label)
        return timeline

    def downsample(self, max_points: int) -> "Timeline":
        """Evenly thin the series for reporting; always keeps the endpoints."""
        if max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        if len(self) <= max_points:
            return self
        out = Timeline(self.name)
        step = (len(self) - 1) / (max_points - 1)
        for i in range(max_points):
            index = round(i * step)
            out.record(self._times[index], self._values[index], self._labels[index])
        return out

"""Time-series sampling of simulation state (heap occupancy, utilisation).

Figure 3 plots resident heap memory through one training iteration; the
executor samples each heap's occupancy into a :class:`Timeline` at every
kernel boundary, producing exactly that series against virtual time.

The executor samples all of a stream's tracks at the same instants, so they
live in one :class:`TimelineFrame`: one time column and one label column
shared by every track, and a value column per track. A sample is one
:meth:`TimelineFrame.stamp` call — one monotonicity check — and one append
per column, instead of a :meth:`Timeline.record` call per track. A frame's
tracks are ordinary :class:`Timeline` objects to every reader (``len``,
iteration, ``to_dict``, ``downsample``); recording into one of them directly
first gives it private copies of the shared columns, so it leaves the frame
and no other track sees the sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

__all__ = ["Timeline", "TimelineFrame", "TimelineSample"]


@dataclass(frozen=True)
class TimelineSample:
    """One (virtual time, value) observation, with an optional label."""

    time: float
    value: float
    label: str = ""


def _backwards(name: str, time: float, last: float) -> ValueError:
    return ValueError(
        f"timeline {name!r}: time went backwards ({time} < {last})"
    )


class Timeline:
    """An append-only series of samples ordered by virtual time."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []
        self._labels: list[str] = []
        # True while a frame shares this track's time and label columns.
        self._shared = False

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[TimelineSample]:
        for time, value, label in zip(self._times, self._values, self._labels):
            yield TimelineSample(time, value, label)

    def record(self, time: float, value: float, label: str = "") -> None:
        """Append a sample; time must be non-decreasing."""
        if self._shared:
            # Leave the frame: a sample of this track alone must not land in
            # its siblings' shared time and label columns, and the frame's
            # later samples must not land in this track.
            self._times = list(self._times)
            self._values = list(self._values)
            self._labels = list(self._labels)
            self._shared = False
        if self._times and time < self._times[-1]:
            raise _backwards(self.name, time, self._times[-1])
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


class TimelineFrame:
    """Tracks sampled together: one time column and one label column shared
    by every track, and one value column per track, in ``names`` order.

    A sample is :meth:`stamp` followed by one append to each of
    ``columns``, in track order, before anything reads the tracks.
    """

    def __init__(self, names: Sequence[str]) -> None:
        if not names:
            raise ValueError("a timeline frame needs at least one track")
        self._times: list[float] = []
        self._labels: list[str] = []
        self.tracks: list[Timeline] = []
        for name in names:
            track = Timeline(name)
            track._times, track._labels = self._times, self._labels
            track._shared = True
            self.tracks.append(track)
        self.columns: list[list[float]] = [track._values for track in self.tracks]

    def stamp(self, time: float, label: str = "") -> None:
        """Open a sample at ``time``: time must be non-decreasing.

        A refused sample changes no column. The error names the first
        track, as a per-track :meth:`Timeline.record` would have.
        """
        times = self._times
        if times and time < times[-1]:
            raise _backwards(self.tracks[0].name, time, times[-1])
        times.append(time)
        self._labels.append(label)

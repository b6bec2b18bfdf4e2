"""The discrete-event core: a priority queue over virtual time.

The multi-stream runtime (docs/architecture.md, "Multi-tenant runtime")
drives every concurrent activity — one tenant's kernel stream, another's,
in-flight DMA completions — from a single queue of :class:`ScheduledEvent`
records ordered by virtual time. Two guarantees make simulations
reproducible:

* **Deterministic tie-break.** Events scheduled for the same virtual time
  pop in the order they were pushed (a monotonic sequence number breaks
  ties), so co-running the same workloads twice interleaves identically.
* **Single-stream reduction.** With exactly one event source the queue
  degenerates into "pop what you just pushed": the execution order is the
  sequential order the pre-scheduler runtime used, which is what keeps the
  golden virtual-time digests bit-identical.

The queue is deliberately tiny: ``heapq`` on ``(time, seq)`` keys with an
opaque payload. Policy lives in :mod:`repro.runtime.scheduler`.
"""

from __future__ import annotations

import heapq
from typing import Any

__all__ = ["ScheduledEvent", "EventQueue"]


class ScheduledEvent:
    """One queued occurrence: ``payload`` becomes runnable at ``time``."""

    __slots__ = ("time", "seq", "payload")

    def __init__(self, time: float, seq: int, payload: Any) -> None:
        self.time = time
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "ScheduledEvent") -> bool:
        # heapq ordering: virtual time first, then FIFO by push order.
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduledEvent(time={self.time!r}, seq={self.seq}, "
            f"payload={self.payload!r})"
        )


class EventQueue:
    """A priority queue on virtual time with deterministic FIFO tie-break."""

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, payload: Any) -> ScheduledEvent:
        """Schedule ``payload`` at virtual ``time``; later pushes at the
        same time pop later (FIFO)."""
        if time != time:  # NaN guard: a NaN key would corrupt heap order
            raise ValueError("cannot schedule an event at NaN time")
        event = ScheduledEvent(time, self._seq, payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest event (FIFO among ties)."""
        return heapq.heappop(self._heap)

"""The multi-stream scheduler: concurrent tenant workloads on one runtime.

The executor expresses a workload as a *stream*: a generator that performs
trace events against its adapter and, at every kernel boundary, **yields the
kernel's duration to the scheduler** instead of advancing the clock itself
(``yield (seconds, category)``). The scheduler owns the shared
:class:`~repro.sim.clock.SimClock` and an
:class:`~repro.sim.events.EventQueue`; it repeatedly:

1. pops the stream with the earliest local virtual time (FIFO among ties);
2. *activates* it — seeks the clock to the stream's local time, binds the
   stream's private busy map, tags the tracer so every event emitted during
   the step carries the stream id, and announces the tenant to the data
   manager for quota accounting;
3. resumes the generator for one step (everything up to its next yield runs
   atomically at the stream's advancing local time: allocations, hints,
   synchronous copies, stalls);
4. applies the yielded duration with ``clock.advance`` and requeues the
   stream at its new local time.

**Granularity.** Streams interleave at kernel-yield granularity: the stream
with the smallest local time always runs next, and everything inside one
step is atomic. Cross-stream interactions (heap pressure, DMA-channel
queueing) are therefore ordered by step start times, deterministic across
runs — the conservative coarse-grain discretisation heterogeneous-memory
simulators typically use.

**Single-stream reduction.** With exactly one stream the scheduler has
nothing to arbitrate: it resumes the lone generator in a loop, applies each
yielded advance immediately, and never seeks the clock (a stream's resume
time always equals ``clock.now``) nor binds a private busy map. The
resulting sequence of clock operations is exactly the pre-scheduler
``Executor.run`` loop — the golden virtual-time digests pin this.

**Dynamic schedules.** A scheduler built with ``dynamic=True`` additionally
accepts :meth:`~StreamScheduler.spawn` calls *during* :meth:`run` — from
inside another stream's step — so open-loop workloads (``repro serve``) can
admit request streams as they arrive and retire them as they depart. A
mid-run spawn becomes runnable no earlier than the spawning stream's current
local time, which keeps the event queue causal: the new stream can never be
scheduled into the past. Dynamic mode always takes the multi-stream path,
even with a single initial stream, so it is opt-in and leaves the
single-stream reduction above bit-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import ConfigurationError
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue
from repro.telemetry.trace import Tracer

__all__ = ["Stream", "StreamScheduler"]

# A stream generator yields (seconds, busy-category) advance requests and
# returns its final result via StopIteration.value.
StreamGen = Generator[tuple[float, str], None, Any]


class Stream:
    """One schedulable execution stream (a tenant's workload)."""

    __slots__ = (
        "name", "gen", "activate", "local_time", "busy",
        "done", "result", "error",
    )

    def __init__(
        self,
        name: str,
        gen: StreamGen,
        *,
        activate: Callable[[], None] | None = None,
    ) -> None:
        self.name = name
        self.gen = gen
        # Optional per-activation hook (e.g. announce the tenant to the
        # shared DataManager for quota accounting).
        self.activate = activate
        self.local_time = 0.0
        # Per-stream busy-time accounting (bound into the clock while the
        # stream runs, multi-stream schedules only).
        self.busy: dict[str, float] = {}
        self.done = False
        self.result: Any = None
        self.error: BaseException | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else f"t={self.local_time:.6f}"
        return f"Stream({self.name!r}, {state})"


class StreamScheduler:
    """Drives one or more streams over a shared clock in virtual-time order."""

    def __init__(
        self, clock: SimClock, *, tracer: Any = None, dynamic: bool = False
    ) -> None:
        self.clock = clock
        # The tracer to tag with the active stream id: any ``Tracer``,
        # ``MonitorTracer`` included; ``None`` and the shared no-op tracer
        # are never touched.
        self.tracer = tracer
        # Dynamic schedules accept spawn() mid-run (open-loop arrivals) and
        # always take the multi-stream path so the event queue exists.
        self.dynamic = dynamic
        # Every stream ever spawned, by name, in spawn order.
        self.streams: dict[str, Stream] = {}
        self._started = False
        self._queue: EventQueue | None = None

    def spawn(
        self,
        name: str,
        gen: StreamGen,
        *,
        activate: Callable[[], None] | None = None,
        start_time: float | None = None,
    ) -> Stream:
        """Register a stream; it becomes runnable at ``start_time``
        (default: the clock's current time).

        Before :meth:`run` this only registers the stream. During a run it
        is allowed only on a ``dynamic=True`` scheduler: the stream joins
        the live event queue, runnable no earlier than the current virtual
        time (mid-run arrivals cannot be scheduled into the past).
        """
        if self._started and not (self.dynamic and self._queue is not None):
            if self.dynamic:
                raise ConfigurationError(
                    "cannot spawn streams after the schedule finished "
                    "(run() already returned)"
                )
            raise ConfigurationError(
                "cannot spawn streams mid-run (build the scheduler with "
                "dynamic=True for open-loop arrivals)"
            )
        if name in self.streams:
            raise ConfigurationError(f"duplicate stream name {name!r}")
        stream = Stream(name, gen, activate=activate)
        stream.local_time = (
            self.clock.now if start_time is None else start_time
        )
        if self._started:
            stream.local_time = max(stream.local_time, self.clock.now)
        self.streams[name] = stream
        if self._started:
            self._queue.push(stream.local_time, stream)
        return stream

    def find(self, name: str) -> Stream | None:
        """The stream registered under ``name``, if any."""
        return self.streams.get(name)

    def cancel(self, name: str) -> bool:
        """Cancel a stream: close its generator and retire it from scheduling.

        Safe to call before, during (from another stream's step), or after
        the run; a cancelled stream is skipped when the event queue next pops
        it. Returns ``True`` when a live stream was cancelled, ``False`` when
        the name is unknown or the stream already finished. Closing the
        generator runs its ``finally`` blocks (unpins, scope pops), so tenant
        teardown goes through the normal unwind path.
        """
        stream = self.find(name)
        if stream is None or stream.done:
            return False
        stream.done = True
        stream.gen.close()
        stream.local_time = max(stream.local_time, self.clock.now)
        return True

    # -- driving ------------------------------------------------------------

    def run(self) -> None:
        """Run every stream to completion, interleaved in virtual-time order.

        A stream that raises stops the whole schedule: concurrent tenants
        share one memory system, so continuing past a corrupted step could
        charge phantom time to the survivors. The exception propagates with
        ``stream.error`` set for post-mortems.
        """
        if self._started:
            raise ConfigurationError("scheduler already ran")
        self._started = True
        if not self.streams:
            return
        if len(self.streams) == 1 and not self.dynamic:
            self._run_single(next(iter(self.streams.values())))
            return
        self._run_many()

    def _run_single(self, stream: Stream) -> None:
        """The sequential fast path: no queue, no seeks, no busy rebinding.

        Behaviour (and clock arithmetic) is bit-identical to the historical
        single-loop executor: resume, advance by whatever was yielded,
        repeat.
        """
        clock = self.clock
        gen = stream.gen
        self._tag(stream.name)
        if stream.activate is not None:
            # One activation is enough: no other stream ever takes over.
            stream.activate()
        try:
            while True:
                try:
                    seconds, category = next(gen)
                except StopIteration as stop:
                    stream.result = stop.value
                    stream.done = True
                    break
                if seconds:
                    clock.advance(seconds, category)
        except BaseException as exc:
            stream.error = exc
            self._flight_dump(stream.name)
            raise
        finally:
            stream.local_time = clock.now
            self._tag("")

    def _run_many(self) -> None:
        clock = self.clock
        queue = EventQueue()
        for stream in self.streams.values():
            queue.push(stream.local_time, stream)
        # Expose the live queue so dynamic spawn() can join mid-run.
        self._queue = queue
        active: Stream | None = None
        try:
            while queue:
                event = queue.pop()
                stream = event.payload
                if stream.done:  # cancelled while queued (tenant detach)
                    continue
                active = stream
                # Activate: the clock becomes this stream's local timeline.
                clock.seek(event.time)
                clock.bind_stream(stream.busy)
                self._tag(stream.name)
                if stream.activate is not None:
                    stream.activate()
                try:
                    seconds, category = next(stream.gen)
                except StopIteration as stop:
                    stream.result = stop.value
                    stream.done = True
                    stream.local_time = clock.now
                    continue
                if seconds:
                    clock.advance(seconds, category)
                stream.local_time = clock.now
                queue.push(stream.local_time, stream)
        except BaseException as exc:
            if active is not None:
                active.error = exc
                self._flight_dump(active.name)
            raise
        finally:
            self._queue = None
            clock.bind_stream(None)
            self._tag("")
            # Leave the clock at the frontier: the latest local time any
            # stream reached (the co-run's end-to-end makespan).
            frontier = (s.local_time for s in self.streams.values())
            clock.seek(max(frontier, default=clock.now))

    def _tag(self, name: str) -> None:
        tracer = self.tracer
        if isinstance(tracer, Tracer):
            tracer.stream = name

    def _flight_dump(self, stream_name: str) -> None:
        """Ask the runtime monitor (if one is attached) for a black box.

        A stream abort ends the whole schedule, so the last-N-events context
        is captured *now*, before unwinding discards the runtime state.
        """
        monitor = getattr(self.tracer, "monitor", None)
        if monitor is not None:
            monitor.record_escalation(
                f"stream_error:{stream_name}", self.clock.now
            )

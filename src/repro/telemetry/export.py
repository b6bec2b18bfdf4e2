"""Trace exporters: Chrome trace-event JSON (Perfetto) and JSONL.

:func:`to_chrome_trace` converts a :class:`~repro.telemetry.trace.Tracer`
event list into the Chrome trace-event format that ``chrome://tracing`` and
https://ui.perfetto.dev load directly:

* kernels render as complete spans (``ph="X"``) on the *execution* process,
* copies render as async spans (``ph="b"``/``"e"``) on their destination
  device's track, so overlap with kernels is visible,
* policy decisions and hints render as instants on the *policy* process,
* :class:`~repro.telemetry.timeline.Timeline` series render as counter
  tracks (``ph="C"``) — heap occupancy and cumulative traffic over time
  (the Figure 3/6 series).

Every emitted record carries ``ph``/``ts``/``pid``/``tid``/``name``.
Virtual seconds become microseconds (the format's unit).

:func:`write_jsonl` streams raw events one JSON object per line with sorted
keys — byte-identical across runs for a deterministic workload, which is
what makes traces diffable across policy ablations. The stream opens with a
``schema_version`` header line (v2); :func:`read_jsonl` loads either a v2 or
a headerless v1 stream back into :class:`TraceEvent` objects, routing any
top-level field it does not recognise into ``args`` so newer traces stay
loadable by older tooling and vice versa.
"""

from __future__ import annotations

import json
import math
from typing import IO, Iterable, Iterator, NoReturn, Sequence

from repro.errors import ConfigurationError
from repro.telemetry.timeline import Timeline
from repro.telemetry.trace import (
    ALLOC,
    COPY_END,
    COPY_RETRY,
    COPY_START,
    DECISION,
    DEFRAG,
    EVICT,
    EVICT_SCAN,
    FAULT,
    FREE,
    GC,
    HINT,
    INVARIANT_CHECK,
    KERNEL_END,
    KERNEL_START,
    OOM_RETRY,
    PLACE,
    POLICY_STRIKE,
    PREFETCH,
    QUARANTINE,
    RECOVERY,
    RECOVERY_STEP,
    SETDIRTY,
    SETPRIMARY,
    STALL,
    TraceEvent,
)

__all__ = [
    "JSONL_SCHEMA_VERSION",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "jsonl_lines",
    "read_jsonl",
    "iter_jsonl",
    "EventStream",
    "event_from_json",
]

# Version of the JSONL stream layout. v1 (PR 1) had no header; v2 adds the
# header line and the ledger-era event kinds (decision, setdirty); v3 adds
# the optional ``stream`` field (multi-tenant runs). Readers must tolerate
# *any* version: unknown kinds pass through as plain events and unknown
# top-level fields land in ``args``.
JSONL_SCHEMA_VERSION = 3

# TraceEvent's own serialised fields; everything else in a JSONL object is a
# kind-specific argument (or a field added by a future schema version).
_EVENT_FIELDS = frozenset({"ts", "kind", "cause", "root", "root_ts", "stream"})

# Process/thread layout of the exported trace.
PID_EXECUTION = 1
PID_POLICY = 2
PID_DEVICES = 3
PID_COUNTERS = 4
TID_KERNELS = 1
TID_RUNTIME = 2

_RUNTIME_INSTANTS = frozenset(
    {
        GC, OOM_RETRY, INVARIANT_CHECK, STALL,
        # Robustness: fault injection and recovery land on the runtime track
        # so recoveries line up visually with the kernels they delayed.
        FAULT, RECOVERY_STEP, RECOVERY, COPY_RETRY, POLICY_STRIKE, QUARANTINE,
    }
)
_POLICY_INSTANTS = frozenset(
    {HINT, PLACE, EVICT, EVICT_SCAN, PREFETCH, SETPRIMARY, DECISION}
)
_DEVICE_INSTANTS = frozenset({ALLOC, FREE, DEFRAG, SETDIRTY})


def _us(seconds: float) -> float:
    """Virtual seconds -> trace microseconds (rounded for stable JSON)."""
    return round(seconds * 1e6, 3)


def _args_of(event: TraceEvent) -> dict:
    args = dict(event.args)
    if event.stream:
        args["stream"] = event.stream
    if event.cause:
        args["cause"] = event.cause
    if event.root:
        args["root"] = event.root
    return args


class _DeviceTracks:
    """Stable device-name -> tid assignment (order of first appearance)."""

    def __init__(self) -> None:
        self._tids: dict[str, int] = {}

    def tid(self, device: str) -> int:
        tid = self._tids.get(device)
        if tid is None:
            tid = self._tids[device] = len(self._tids) + 1
        return tid

    def items(self) -> list[tuple[str, int]]:
        return list(self._tids.items())


def to_chrome_trace(
    events: Iterable[TraceEvent],
    *,
    timelines: Sequence[Timeline] = (),
) -> dict:
    """Build a Chrome trace-event document from a tracer's event list."""
    out: list[dict] = []
    devices = _DeviceTracks()
    # Kernel spans pair start/end per stream: interleaved tenants each get
    # their own stack and their own kernel lane. The streamless (single-
    # tenant) case keeps the historical TID_KERNELS lane.
    kernel_stacks: dict[str, list[TraceEvent]] = {}
    stream_tids: dict[str, int] = {"": TID_KERNELS}

    def kernel_tid(stream: str) -> int:
        tid = stream_tids.get(stream)
        if tid is None:
            # Named streams land on tids above the fixed runtime lane.
            tid = stream_tids[stream] = TID_RUNTIME + len(stream_tids)
        return tid

    for event in events:
        ts = _us(event.ts)
        if event.kind == KERNEL_START:
            kernel_stacks.setdefault(event.stream, []).append(event)
        elif event.kind == KERNEL_END:
            stack = kernel_stacks.get(event.stream)
            start = stack.pop() if stack else event
            out.append(
                {
                    "ph": "X",
                    "ts": _us(start.ts),
                    "dur": round(ts - _us(start.ts), 3),
                    "pid": PID_EXECUTION,
                    "tid": kernel_tid(event.stream),
                    "name": str(event.args.get("kernel", "kernel")),
                    "cat": "kernel",
                    "args": _args_of(event),
                }
            )
        elif event.kind == COPY_START:
            tid = devices.tid(str(event.args.get("dst", "?")))
            name = f"copy {event.args.get('src', '?')}→{event.args.get('dst', '?')}"
            record = {
                "ph": "b",
                "ts": ts,
                "pid": PID_DEVICES,
                "tid": tid,
                "name": name,
                "cat": "copy",
                "id": int(event.args.get("seq", 0)),
                "args": _args_of(event),
            }
            out.append(record)
        elif event.kind == COPY_END:
            tid = devices.tid(str(event.args.get("dst", "?")))
            name = f"copy {event.args.get('src', '?')}→{event.args.get('dst', '?')}"
            out.append(
                {
                    "ph": "e",
                    "ts": ts,
                    "pid": PID_DEVICES,
                    "tid": tid,
                    "name": name,
                    "cat": "copy",
                    "id": int(event.args.get("seq", 0)),
                    "args": {},
                }
            )
        elif event.kind in _POLICY_INSTANTS:
            out.append(
                {
                    "ph": "i",
                    "ts": ts,
                    "pid": PID_POLICY,
                    "tid": 1,
                    "name": event.kind,
                    "s": "t",
                    "args": _args_of(event),
                }
            )
        elif event.kind in _DEVICE_INSTANTS:
            tid = devices.tid(str(event.args.get("device", "?")))
            out.append(
                {
                    "ph": "i",
                    "ts": ts,
                    "pid": PID_DEVICES,
                    "tid": tid,
                    "name": event.kind,
                    "s": "t",
                    "args": _args_of(event),
                }
            )
        else:  # runtime instants and any future kinds
            out.append(
                {
                    "ph": "i",
                    "ts": ts,
                    "pid": PID_EXECUTION,
                    "tid": TID_RUNTIME,
                    "name": event.kind,
                    "s": "t",
                    "args": _args_of(event),
                }
            )

    for timeline in timelines:
        data = timeline.to_dict()
        for sample_ts, value, _label in data["samples"]:
            out.append(
                {
                    "ph": "C",
                    "ts": _us(sample_ts),
                    "pid": PID_COUNTERS,
                    "tid": 1,
                    "name": data["name"],
                    "args": {"value": value},
                }
            )

    meta: list[dict] = []
    for pid, name in (
        (PID_EXECUTION, "execution"),
        (PID_POLICY, "policy"),
        (PID_DEVICES, "devices"),
        (PID_COUNTERS, "counters"),
    ):
        meta.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {"name": name},
            }
        )
    stream_lanes = tuple(
        (PID_EXECUTION, tid, f"kernels:{stream}")
        for stream, tid in stream_tids.items()
        if stream
    )
    for thread_meta in (
        (PID_EXECUTION, TID_KERNELS, "kernels"),
        (PID_EXECUTION, TID_RUNTIME, "runtime"),
        (PID_POLICY, 1, "decisions"),
    ) + stream_lanes:
        pid, tid, name = thread_meta
        meta.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": name},
            }
        )
    for device, tid in devices.items():
        meta.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": PID_DEVICES,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": device},
            }
        )

    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Iterable[TraceEvent],
    fp: IO[str],
    *,
    timelines: Sequence[Timeline] = (),
) -> None:
    """Serialise :func:`to_chrome_trace` output to an open text file."""
    json.dump(to_chrome_trace(events, timelines=timelines), fp)


def jsonl_lines(events: Iterable[TraceEvent]) -> Iterable[str]:
    """One compact, sorted-key JSON object per event (deterministic bytes)."""
    for event in events:
        yield json.dumps(event.to_json(), sort_keys=True, separators=(",", ":"))


def write_jsonl(events: Iterable[TraceEvent], fp: IO[str]) -> None:
    """Stream a schema header then :func:`jsonl_lines`, one event per line."""
    header = {"schema": "repro.trace", "schema_version": JSONL_SCHEMA_VERSION}
    fp.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
    fp.write("\n")
    for line in jsonl_lines(events):
        fp.write(line)
        fp.write("\n")


def event_from_json(data: dict) -> TraceEvent:
    """Rebuild one event from its flat JSONL object.

    Inverse of :meth:`TraceEvent.to_json`, except that any top-level key this
    reader does not recognise as an event field is treated as a kind-specific
    argument — a trace written by a newer schema (extra fields) still loads.
    """
    args = {
        key: value for key, value in data.items() if key not in _EVENT_FIELDS
    }
    return TraceEvent(
        ts=float(data["ts"]),
        kind=str(data["kind"]),
        args=args,
        cause=str(data.get("cause", "")),
        root=str(data.get("root", "")),
        root_ts=data.get("root_ts"),
        stream=str(data.get("stream", "")),
    )


def _non_finite(text: str) -> NoReturn:
    raise ValueError(f"non-finite number {text}")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):  # an overflowing literal such as 1e999
        _non_finite(text)
    return value


# One decoder for every line: ``json.loads`` with hooks would build a new
# one per call, which costs more than the hooks.
_DECODER = json.JSONDecoder(parse_constant=_non_finite, parse_float=_finite_float)


def iter_jsonl(fp: IO[str]) -> Iterator[TraceEvent]:
    """Stream a JSONL trace one event at a time — O(1) memory.

    Same format tolerance as :func:`read_jsonl` (v1 headerless or v2+ with
    header; blank lines skipped; unknown top-level fields into ``args``) but
    yields events as lines are read instead of materializing a list, so
    multi-million-event serving traces can be analyzed without holding the
    whole run in memory. Raises :class:`ValueError` naming the line on a
    malformed one, including a non-finite number (``NaN``, ``Infinity``,
    ``1e999``): Python's ``json`` accepts those, no writer here emits them,
    and every fold downstream would be poisoned by one.
    """
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = _DECODER.decode(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: not JSON: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError(f"line {lineno}: expected an object, got {data!r}")
        if "kind" not in data:
            if "schema_version" in data:
                continue  # header line (any version)
            raise ValueError(f"line {lineno}: no 'kind' and not a header")
        if "ts" not in data:
            raise ValueError(f"line {lineno}: event lacks 'ts'")
        yield event_from_json(data)


def read_jsonl(fp: IO[str]) -> list[TraceEvent]:
    """Load a JSONL event stream written by :func:`write_jsonl` into a list.

    Compatibility wrapper over :func:`iter_jsonl`; prefer the iterator (or
    :class:`EventStream` for a whole file) when the trace may be large.
    """
    return list(iter_jsonl(fp))


class EventStream:
    """A *re-iterable* lazy view of a JSONL trace file.

    The trace analyzers (`repro explain`/`diff`/`profile`) make several full
    passes over a trace — stream discovery, then per-stream folds, then
    stall attribution. A generator would be exhausted after the first pass,
    so this wrapper re-opens the file on every ``iter()``: each pass streams
    from disk with O(1) memory and no pass sees a half-consumed iterator.
    A malformed line, however deep in the file, raises
    :class:`~repro.errors.ConfigurationError` naming the path and the line.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    def __iter__(self) -> Iterator[TraceEvent]:
        with open(self.path, "r", encoding="utf-8") as fp:
            try:
                yield from iter_jsonl(fp)
            except ValueError as exc:
                raise ConfigurationError(
                    f"{self.path} is not a JSONL event stream: {exc}"
                ) from None

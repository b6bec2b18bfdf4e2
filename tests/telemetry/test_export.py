"""Chrome trace-event and JSONL exporters."""

import io
import json
import re

import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import SimClock
from repro.telemetry.export import (
    JSONL_SCHEMA_VERSION,
    EventStream,
    iter_jsonl,
    jsonl_lines,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.timeline import Timeline
from repro.telemetry.trace import (
    COPY_END,
    COPY_START,
    EVICT,
    KERNEL_END,
    KERNEL_START,
    Tracer,
)


def sample_tracer():
    clock = SimClock()
    tracer = Tracer(clock)
    tracer.emit(KERNEL_START, kernel="fwd0")
    clock.advance(0.002, "kernel")
    tracer.emit(KERNEL_END, kernel="fwd0", seconds=0.002)
    with tracer.scope("evict", "a3"):
        tracer.emit_at(
            0.002, COPY_START, src="DRAM", dst="NVRAM", nbytes=64, seq=1
        )
        tracer.emit_at(0.003, COPY_END, src="DRAM", dst="NVRAM", nbytes=64, seq=1)
        tracer.emit(EVICT, obj="a3", src="DRAM", dst="NVRAM", nbytes=64, clean=False)
    return tracer


def test_every_record_has_required_keys():
    doc = to_chrome_trace(sample_tracer().events)
    assert "traceEvents" in doc
    for record in doc["traceEvents"]:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in record, record


def test_kernels_become_complete_spans():
    doc = to_chrome_trace(sample_tracer().events)
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["name"] == "fwd0"
    assert spans[0]["ts"] == 0.0
    assert spans[0]["dur"] == 2000.0  # 2 ms in microseconds


def test_copies_become_async_span_pairs_on_device_track():
    doc = to_chrome_trace(sample_tracer().events)
    begins = [e for e in doc["traceEvents"] if e["ph"] == "b"]
    ends = [e for e in doc["traceEvents"] if e["ph"] == "e"]
    assert len(begins) == len(ends) == 1
    assert begins[0]["id"] == ends[0]["id"] == 1
    assert begins[0]["tid"] == ends[0]["tid"]
    assert begins[0]["args"]["cause"] == "evict:a3"
    # The destination device is named via thread metadata.
    names = [
        e["args"]["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    ]
    assert "NVRAM" in names


def test_decisions_become_instants():
    doc = to_chrome_trace(sample_tracer().events)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert any(e["name"] == "evict" for e in instants)
    assert all(e["s"] == "t" for e in instants)


def test_timelines_become_counter_tracks():
    timeline = Timeline("DRAM")
    timeline.record(0.0, 10)
    timeline.record(1.0, 20)
    doc = to_chrome_trace([], timelines=[timeline])
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert [(c["ts"], c["args"]["value"]) for c in counters] == [
        (0.0, 10),
        (1000000.0, 20),
    ]
    assert all(c["name"] == "DRAM" for c in counters)


def test_write_chrome_trace_is_valid_json():
    buffer = io.StringIO()
    write_chrome_trace(sample_tracer().events, buffer)
    doc = json.loads(buffer.getvalue())
    assert doc["displayTimeUnit"] == "ms"


def test_jsonl_is_one_sorted_object_per_line():
    events = sample_tracer().events
    buffer = io.StringIO()
    write_jsonl(events, buffer)
    lines = buffer.getvalue().splitlines()
    # One schema-header line, then one line per event.
    assert len(lines) == len(events) + 1
    header = json.loads(lines[0])
    assert header == {
        "schema": "repro.trace",
        "schema_version": JSONL_SCHEMA_VERSION,
    }
    first = json.loads(lines[1])
    assert first["kind"] == KERNEL_START
    # Compact separators and sorted keys: deterministic bytes.
    assert lines[1:] == list(jsonl_lines(events))
    assert lines[1] == json.dumps(first, sort_keys=True, separators=(",", ":"))


def test_jsonl_round_trip_restores_events():
    events = sample_tracer().events
    buffer = io.StringIO()
    write_jsonl(events, buffer)
    buffer.seek(0)
    loaded = read_jsonl(buffer)
    assert loaded == list(events)


def test_read_jsonl_accepts_headerless_v1_streams():
    events = sample_tracer().events
    body = "\n".join(jsonl_lines(events)) + "\n"
    loaded = read_jsonl(io.StringIO(body))
    assert loaded == list(events)


def test_read_jsonl_routes_unknown_fields_into_args():
    line = json.dumps(
        {"ts": 1.5, "kind": "copy_start", "nbytes": 8, "galaxy": "far away"}
    )
    (event,) = read_jsonl(io.StringIO(line))
    assert event.ts == 1.5
    assert event.kind == "copy_start"
    assert event.args == {"nbytes": 8, "galaxy": "far away"}


def test_read_jsonl_skips_blank_lines_and_future_headers():
    stream = io.StringIO(
        '{"schema":"repro.trace","schema_version":99}\n'
        "\n"
        '{"kind":"gc","seconds":0.1,"ts":2.0}\n'
    )
    (event,) = read_jsonl(stream)
    assert event.kind == "gc"
    assert event.args == {"seconds": 0.1}


def test_read_jsonl_rejects_garbage():
    with pytest.raises(ValueError):
        read_jsonl(io.StringIO("not json\n"))
    with pytest.raises(ValueError):
        read_jsonl(io.StringIO("[1, 2]\n"))
    with pytest.raises(ValueError):
        read_jsonl(io.StringIO('{"no_kind": true}\n'))
    with pytest.raises(ValueError):
        read_jsonl(io.StringIO('{"kind": "gc"}\n'))
    # Python's json reads these as floats; no fold downstream can use one.
    for number in ("NaN", "Infinity", "-Infinity", "1e999"):
        body = '{"kind":"gc","ts":1.0}\n{"kind":"gc","seconds":%s,"ts":2.0}\n'
        with pytest.raises(ValueError, match=f"^line 2: non-finite number {number}$"):
            read_jsonl(io.StringIO(body % number))


def test_event_stream_names_its_path_at_a_bad_line_past_the_first(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"kind":"gc","ts":1.0}\n{"kind":"gc","ts":2.0,\n')
    stream = EventStream(str(path))
    expected = f"^{re.escape(str(path))} is not a JSONL event stream: line 2: not JSON"
    with pytest.raises(ConfigurationError, match=expected):
        list(stream)


def test_iter_jsonl_streams_lazily():
    tracer = sample_tracer()
    buffer = io.StringIO()
    write_jsonl(tracer.events, buffer)
    buffer.seek(0)
    iterator = iter_jsonl(buffer)
    first = next(iterator)
    assert first.kind == tracer.events[0].kind
    # The rest of the stream is still unread until consumed.
    assert list(iterator) != []
    buffer.seek(0)
    assert len(list(iter_jsonl(buffer))) == len(tracer.events)


def test_event_stream_is_reiterable(tmp_path):
    """The analyzers make several full passes; every `iter()` must see the
    whole file, not a half-consumed iterator."""
    tracer = sample_tracer()
    path = tmp_path / "run.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        write_jsonl(tracer.events, fp)
    stream = EventStream(str(path))
    first_pass = [e.kind for e in stream]
    second_pass = [e.kind for e in stream]
    assert first_pass == second_pass
    assert first_pass == [e.kind for e in tracer.events]

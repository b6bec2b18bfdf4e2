"""Timeline recording and step-function queries."""

import pytest

from repro.telemetry.timeline import Timeline, TimelineFrame


def make(samples):
    timeline = Timeline("heap")
    for t, v in samples:
        timeline.record(t, v)
    return timeline


def test_empty():
    timeline = Timeline("x")
    assert len(timeline) == 0
    assert timeline.peak() == 0.0
    assert timeline.last() == 0.0


def test_record_and_iterate():
    timeline = make([(0.0, 1.0), (1.0, 2.0)])
    samples = list(timeline)
    assert [(s.time, s.value) for s in samples] == [(0.0, 1.0), (1.0, 2.0)]


def test_time_must_not_go_backwards():
    timeline = make([(1.0, 1.0)])
    with pytest.raises(ValueError):
        timeline.record(0.5, 2.0)


def test_equal_times_allowed():
    timeline = make([(1.0, 1.0), (1.0, 2.0)])
    assert len(timeline) == 2


def test_peak_and_last():
    timeline = make([(0, 5), (1, 9), (2, 3)])
    assert timeline.peak() == 9
    assert timeline.last() == 3


def test_downsample_keeps_endpoints():
    timeline = make([(float(i), float(i)) for i in range(100)])
    thinned = timeline.downsample(10)
    assert len(thinned) == 10
    assert thinned.times()[0] == 0.0
    assert thinned.times()[-1] == 99.0


def test_downsample_noop_when_small():
    timeline = make([(0.0, 1.0), (1.0, 2.0)])
    assert timeline.downsample(10) is timeline


def test_downsample_requires_two_points():
    with pytest.raises(ValueError):
        make([(0.0, 1.0)]).downsample(1)


def test_to_dict_round_trip():
    timeline = Timeline("DRAM")
    timeline.record(0.0, 10.0, "iteration-start")
    timeline.record(1.5, 20.0)
    timeline.record(2.0, 15.0, "iteration-end")
    data = timeline.to_dict()
    assert data["name"] == "DRAM"
    assert data["samples"][0] == [0.0, 10.0, "iteration-start"]
    rebuilt = Timeline.from_dict(data)
    assert rebuilt.name == timeline.name
    assert rebuilt.times() == timeline.times()
    assert rebuilt.values() == timeline.values()
    assert [s.label for s in rebuilt] == [s.label for s in timeline]
    # The round trip is exact: serialising again yields identical data.
    assert rebuilt.to_dict() == data


def test_from_dict_tolerates_missing_labels():
    rebuilt = Timeline.from_dict({"name": "x", "samples": [[0.0, 1.0]]})
    assert list(rebuilt)[0].label == ""


def test_to_dict_is_json_serialisable():
    import json

    timeline = make([(0.0, 1.0), (1.0, 2.0)])
    encoded = json.dumps(timeline.to_dict())
    assert Timeline.from_dict(json.loads(encoded)).values() == [1.0, 2.0]


def test_empty_timeline_round_trip():
    timeline = Timeline("empty")
    data = timeline.to_dict()
    assert data["samples"] == []
    rebuilt = Timeline.from_dict(data)
    assert rebuilt.name == "empty"
    assert len(rebuilt) == 0
    assert rebuilt.to_dict() == data


def test_extreme_sample_values_round_trip():
    import json

    extremes = [
        (0.0, 0.0),
        (1e-12, 5e-324),            # smallest subnormal float
        (1.0, -1.7976931348623157e308),
        (2.0, 1.7976931348623157e308),
        (3.0, 2**63),               # beyond int64, still exact as int
    ]
    timeline = make(extremes)
    encoded = json.dumps(timeline.to_dict())
    rebuilt = Timeline.from_dict(json.loads(encoded))
    assert rebuilt.times() == timeline.times()
    assert rebuilt.values() == timeline.values()
    assert rebuilt.peak() == timeline.peak()


# -- frames: tracks sampled together over one time and label column ----------


def sample(frame, time, values, label=""):
    """One frame sample, as the executor takes it: a stamp, then one value
    per column."""
    frame.stamp(time, label)
    for column, value in zip(frame.columns, values, strict=True):
        column.append(value)


def make_frame():
    frame = TimelineFrame(["DRAM", "NVRAM", "total"])
    sample(frame, 0.0, [10, 20, 30], "iteration-start")
    sample(frame, 1.5, [15, 20, 35])
    sample(frame, 1.5, [5, 25, 30], "iteration-end")
    return frame


def test_a_frame_sample_lands_in_every_track():
    frame = make_frame()
    dram, nvram, total = frame.tracks
    assert [t.name for t in frame.tracks] == ["DRAM", "NVRAM", "total"]
    assert [len(t) for t in frame.tracks] == [3, 3, 3]
    assert dram.values() == [10, 15, 5]
    assert total.times() == [0.0, 1.5, 1.5]
    assert [s.label for s in nvram] == ["iteration-start", "", "iteration-end"]


def test_a_backwards_frame_sample_is_refused_and_changes_no_column():
    """The same error a per-track record raised (naming the first track),
    and no column grows: the tracks stay aligned."""
    frame = make_frame()
    before = [t.to_dict() for t in frame.tracks]
    with pytest.raises(
        ValueError, match=r"^timeline 'DRAM': time went backwards \(1.0 < 1.5\)$"
    ):
        frame.stamp(1.0, "late")
    assert [t.to_dict() for t in frame.tracks] == before
    assert [len(t) for t in frame.tracks] == [3, 3, 3]
    assert [len(column) for column in frame.columns] == [3, 3, 3]


def test_a_frame_needs_a_track():
    with pytest.raises(ValueError):
        TimelineFrame([])


def test_a_frame_track_round_trips_and_downsamples_like_a_timeline():
    frame = make_frame()
    for i in range(2, 40):
        sample(frame, float(i), [i, 2 * i, 3 * i])
    for track in frame.tracks:
        standalone = Timeline(track.name)
        for point in track:
            standalone.record(point.time, point.value, point.label)
        data = track.to_dict()
        assert data == standalone.to_dict()
        rebuilt = Timeline.from_dict(data)
        assert rebuilt.to_dict() == data
        assert (rebuilt.peak(), rebuilt.last()) == (track.peak(), track.last())
        thinned = track.downsample(7)
        assert thinned.to_dict() == standalone.downsample(7).to_dict()
        assert thinned.times()[0] == 0.0 and thinned.times()[-1] == 39.0
        assert track.downsample(100) is track


def test_recording_into_a_frame_track_takes_it_out_of_the_frame():
    """A direct record lands in that track alone, and the frame's later
    samples land in its siblings alone."""
    frame = make_frame()
    dram, nvram, total = frame.tracks
    dram.record(2.0, 99, "mine")
    assert len(dram) == 4 and dram.last() == 99
    assert [len(nvram), len(total)] == [3, 3]
    sample(frame, 3.0, [1, 2, 3])
    assert len(dram) == 4 and dram.last() == 99
    assert nvram.times() == total.times() == [0.0, 1.5, 1.5, 3.0]
    assert nvram.last() == 2 and total.last() == 3


def test_executor_records_traffic_timelines():
    from repro.experiments.common import ExperimentConfig, run_trace_mode
    from repro.units import KiB, MiB
    from repro.workloads.annotate import annotate
    from repro.workloads.synthetic import filo_stack_trace

    trace = annotate(filo_stack_trace(depth=8, activation_bytes=256 * KiB), memopt=True)
    config = ExperimentConfig(
        scale=1, iterations=1, dram_bytes=MiB, nvram_bytes=64 * MiB,
        sample_timeline=True,
    )
    result = run_trace_mode(trace, "CA:LM", config, model_label="t")
    timeline = result.run.occupancy_timeline["traffic:NVRAM"]
    values = timeline.values()
    assert values == sorted(values)  # cumulative => monotone
    assert values[-1] > 0


def test_a_frame_copy_holds_the_samples_so_far_and_nothing_after():
    """Samples into the copy do not reach the original's tracks, nor the
    reverse, and a track that left the original frame does not change what
    the copy holds."""
    frame = make_frame()
    frame.tracks[0].record(2.0, 99, "mine")  # DRAM leaves the frame
    copy = frame.copy()
    assert [t.name for t in copy.tracks] == ["DRAM", "NVRAM", "total"]
    assert [t.to_dict() for t in copy.tracks[1:]] == [
        t.to_dict() for t in frame.tracks[1:]
    ]
    assert copy.tracks[0].values() == [10, 15, 5]
    originals = [t.to_dict() for t in frame.tracks]
    sample(copy, 3.0, [1, 2, 3])
    assert [t.to_dict() for t in frame.tracks] == originals
    sample(frame, 4.0, [4, 5, 6])
    assert [len(t) for t in copy.tracks] == [4, 4, 4]
    assert [t.last() for t in copy.tracks] == [1, 2, 3]

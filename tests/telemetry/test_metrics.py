"""Trace-derived movement metrics and copy attribution."""

import pytest

from repro.telemetry.metrics import attribute_copies, derive_metrics
from repro.telemetry.trace import COPY_START, EVICT_SCAN, HINT, TraceEvent


def _copy(ts, nbytes, root="", root_ts=None):
    return TraceEvent(
        ts, COPY_START, {"nbytes": nbytes}, root or "", root, root_ts
    )


def test_counter_and_histogram():
    """Counts add up per key; a distribution keeps count/sum/min/max/mean."""
    events = [
        TraceEvent(0.0, EVICT_SCAN, {"depth": 2}),
        _copy(0.5, 100, root="evict:a"),
        TraceEvent(1.0, EVICT_SCAN, {"depth": 4}),
        _copy(1.5, 400, root="evict:a"),
    ]
    data = derive_metrics(events)
    assert data["trace.events{kind=evictfrom}"] == 2
    assert data["trace.copies{cause=evict:a}"] == 2
    assert data["trace.copy_bytes{cause=evict:a}"] == 500
    assert data["trace.eviction_cascade_depth"] == {
        "count": 2, "sum": 6.0, "min": 2, "max": 4, "mean": 3.0,
    }


def test_labels_are_sorted_into_stable_keys():
    """Keys read ``name{label=value}`` and come out sorted, whatever the
    event order; a distribution appears only once observed."""
    assert derive_metrics([]) == {}
    data = derive_metrics([_copy(0.0, 10, root="z"), _copy(1.0, 20)])
    assert data == {
        "trace.copies{cause=unattributed}": 1,
        "trace.copies{cause=z}": 1,
        "trace.copy_bytes{cause=unattributed}": 20,
        "trace.copy_bytes{cause=z}": 10,
        "trace.events{kind=copy_start}": 2,
    }
    assert list(data) == sorted(data)


def test_derive_metrics_rolls_up_copies():
    events = [
        TraceEvent(0.0, HINT, {"hint": "will_write", "subject": "a"}),
        _copy(0.5, 100, root="hint:will_write:a", root_ts=0.0),
        _copy(1.0, 300, root="hint:will_write:a", root_ts=0.4),
        _copy(2.0, 50),  # unattributed
        TraceEvent(3.0, EVICT_SCAN, {"depth": 3}),
    ]
    data = derive_metrics(events)
    assert data["trace.events{kind=copy_start}"] == 3
    assert data["trace.copy_bytes{cause=hint:will_write:a}"] == 400
    assert data["trace.copy_bytes{cause=unattributed}"] == 50
    assert data["trace.copies{cause=hint:will_write:a}"] == 2
    latency = data["trace.hint_to_movement_seconds"]
    assert latency["count"] == 2
    assert latency["max"] == pytest.approx(0.6)
    assert data["trace.eviction_cascade_depth"] == {
        "count": 1, "sum": 3.0, "min": 3, "max": 3, "mean": 3.0,
    }


def test_attribute_copies_buckets_and_fraction():
    events = [
        _copy(0.0, 700, root="evict:a3", root_ts=0.0),
        _copy(1.0, 200, root="evict:a3", root_ts=0.9),
        _copy(2.0, 100, root="hint:will_read:b", root_ts=2.0),
    ]
    attribution = attribute_copies(events)
    assert attribution.total_bytes == 1000
    assert attribution.total_copies == 3
    assert attribution.attributed_fraction == pytest.approx(1.0)
    assert attribution.buckets[0].cause == "evict:a3"
    assert attribution.buckets[0].nbytes == 900


def test_attribution_counts_unattributed():
    attribution = attribute_copies([_copy(0.0, 60), _copy(1.0, 40, root="gc")])
    assert attribution.attributed_fraction == pytest.approx(0.4)
    # No copies at all means nothing is unattributed.
    assert attribute_copies([]).attributed_fraction == 1.0

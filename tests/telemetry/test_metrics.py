"""Metrics registry and trace-derived movement metrics."""

import pytest

from repro.telemetry.metrics import (
    MetricsRegistry,
    attribute_copies,
    derive_metrics,
)
from repro.telemetry.trace import COPY_START, EVICT_SCAN, HINT, TraceEvent


def test_counter_and_histogram():
    registry = MetricsRegistry()
    registry.counter("copies").inc()
    registry.counter("copies").inc(4)
    registry.histogram("depth").observe(2)
    registry.histogram("depth").observe(4)
    data = registry.as_dict()
    assert data["copies"] == 5
    assert data["depth"]["count"] == 2
    assert data["depth"]["mean"] == pytest.approx(3.0)
    assert data["depth"]["min"] == 2 and data["depth"]["max"] == 4


def test_labels_are_sorted_into_stable_keys():
    registry = MetricsRegistry()
    registry.counter("bytes", device="DRAM", cause="evict").inc(7)
    assert "bytes{cause=evict,device=DRAM}" in registry
    # Same labels in another order resolve to the same metric.
    registry.counter("bytes", cause="evict", device="DRAM").inc(3)
    assert registry.as_dict()["bytes{cause=evict,device=DRAM}"] == 10


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.histogram("x")


def _copy(ts, nbytes, root="", root_ts=None):
    return TraceEvent(
        ts, COPY_START, {"nbytes": nbytes}, root or "", root, root_ts
    )


def test_derive_metrics_rolls_up_copies():
    events = [
        TraceEvent(0.0, HINT, {"hint": "will_write", "subject": "a"}),
        _copy(0.5, 100, root="hint:will_write:a", root_ts=0.0),
        _copy(1.0, 300, root="hint:will_write:a", root_ts=0.4),
        _copy(2.0, 50),  # unattributed
        TraceEvent(3.0, EVICT_SCAN, {"depth": 3}),
    ]
    data = derive_metrics(events).as_dict()
    assert data["trace.events{kind=copy_start}"] == 3
    assert data["trace.copy_bytes{cause=hint:will_write:a}"] == 400
    assert data["trace.copy_bytes{cause=unattributed}"] == 50
    assert data["trace.copies{cause=hint:will_write:a}"] == 2
    latency = data["trace.hint_to_movement_seconds"]
    assert latency["count"] == 2
    assert latency["max"] == pytest.approx(0.6)
    assert data["trace.eviction_cascade_depth"]["max"] == 3


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


def test_registry_reset_zeroes_in_place():
    registry = MetricsRegistry()
    counter = registry.counter("copies")
    counter.inc(9)
    histogram = registry.histogram("depth")
    histogram.observe(4.0)
    registry.reset()
    # Values are zeroed...
    assert counter.value == 0
    assert histogram.count == 0
    assert histogram.as_dict() == {
        "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
    }
    # ...but identity and keys survive: held references keep working.
    assert registry.counter("copies") is counter
    counter.inc()
    assert registry.as_dict()["copies"] == 1


def test_histogram_usable_after_reset():
    registry = MetricsRegistry()
    histogram = registry.histogram("depth")
    histogram.observe(10.0)
    registry.reset()
    histogram.observe(2.0)
    assert histogram.as_dict()["min"] == 2.0
    assert histogram.as_dict()["max"] == 2.0
    assert histogram.mean == pytest.approx(2.0)

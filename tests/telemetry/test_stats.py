"""Bus utilisation and series summaries."""

import pytest

from repro.telemetry.counters import TrafficSnapshot
from repro.telemetry.stats import BusUtilization, summarize_series


def test_utilization_basic():
    traffic = TrafficSnapshot("DRAM", read_bytes=50, write_bytes=50)
    util = BusUtilization.from_traffic(traffic, window_seconds=1.0, peak_bandwidth=200)
    assert util.utilization == pytest.approx(0.5)
    assert util.bytes_moved == 100


def test_utilization_full_bus():
    traffic = TrafficSnapshot("DRAM", 100, 0)
    util = BusUtilization.from_traffic(traffic, 1.0, 100)
    assert util.utilization == pytest.approx(1.0)


def test_utilization_invalid_window():
    traffic = TrafficSnapshot("DRAM", 1, 1)
    with pytest.raises(ValueError):
        BusUtilization.from_traffic(traffic, 0.0, 100)
    with pytest.raises(ValueError):
        BusUtilization.from_traffic(traffic, 1.0, 0.0)


def test_utilization_str():
    traffic = TrafficSnapshot("DRAM", 25, 0)
    assert "25.0%" in str(BusUtilization.from_traffic(traffic, 1.0, 100))


def test_summary_basic():
    summary = summarize_series([1.0, 2.0, 3.0])
    assert summary.count == 3
    assert summary.mean == pytest.approx(2.0)
    assert summary.minimum == 1.0
    assert summary.maximum == 3.0
    assert summary.std == pytest.approx((2.0 / 3.0) ** 0.5)


def test_summary_single():
    summary = summarize_series([5.0])
    assert summary.std == 0.0
    assert summary.mean == 5.0


def test_summary_empty_rejected():
    with pytest.raises(ValueError):
        summarize_series([])


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


def test_utilization_above_one_warns_and_clamps():
    traffic = TrafficSnapshot("DRAM", read_bytes=300, write_bytes=0)
    with pytest.warns(RuntimeWarning, match="exceeds 1.0"):
        util = BusUtilization.from_traffic(traffic, 1.0, 100.0)
    assert util.utilization == 1.0
    assert util.raw_utilization == pytest.approx(3.0)


def test_utilization_at_or_below_one_does_not_warn():
    import warnings

    traffic = TrafficSnapshot("DRAM", read_bytes=100, write_bytes=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        util = BusUtilization.from_traffic(traffic, 1.0, 100.0)
    assert util.utilization == 1.0
    assert util.raw_utilization == pytest.approx(1.0)

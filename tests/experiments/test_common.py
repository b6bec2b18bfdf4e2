"""Experiment harness machinery."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig, run_mode, run_trace_mode
from repro.units import GB
from repro.workloads.synthetic import filo_stack_trace

FAST = ExperimentConfig(scale=128, iterations=1, sample_timeline=False)


def test_scaled_device_sizes():
    config = ExperimentConfig(scale=10)
    assert config.scaled_dram() == 18 * GB
    assert config.scaled_nvram() == 130 * GB


def test_with_dram():
    config = ExperimentConfig().with_dram(0)
    assert config.dram_bytes == 0
    assert config.scale == ExperimentConfig().scale


def test_build_devices_scale_setup_latency():
    a = ExperimentConfig(scale=1).build_nvram()
    b = ExperimentConfig(scale=16).build_nvram()
    assert b.bandwidth.setup_latency == pytest.approx(
        a.bandwidth.setup_latency / 16
    )


def test_unknown_model_rejected():
    with pytest.raises(ConfigurationError):
        run_mode("lenet", "CA:LM", FAST)


def test_run_mode_produces_result():
    result = run_mode("resnet200-small", "CA:LM", FAST)
    assert result.seconds > 0
    assert result.footprint_bytes > 0
    assert result.mode.name == "CA:LM"
    assert result.iteration.traffic


def test_run_trace_mode_on_custom_trace():
    trace = filo_stack_trace(depth=6, activation_bytes=1 << 20)
    config = ExperimentConfig(scale=4, iterations=1, sample_timeline=False)
    ca = run_trace_mode(trace.scaled(4), "CA:LM", config, model_label="filo")
    lm = run_trace_mode(trace.scaled(4), "2LM:0", config, model_label="filo")
    assert ca.model == lm.model == "filo"
    assert lm.iteration.cache is not None
    assert ca.iteration.cache is None


def test_traffic_gb_rescales_to_paper_magnitude():
    result = run_mode("resnet200-small", "CA:LM", FAST)
    read_gb, write_gb = result.traffic_gb("DRAM")
    raw_read, raw_write = result.iteration.traffic_gb("DRAM")
    assert read_gb == pytest.approx(raw_read * FAST.scale)


def test_nvram_only_configuration():
    config = ExperimentConfig(
        scale=128, iterations=1, dram_bytes=0, sample_timeline=False
    )
    result = run_mode("resnet200-small", "CA:LM", config)
    assert "DRAM" not in result.iteration.traffic
    assert result.iteration.traffic["NVRAM"].total_bytes > 0
    assert result.dram_utilization() == 0.0


def test_mode_object_accepted_directly():
    from repro.policies.modes import mode

    result = run_mode("resnet200-small", mode("2LM:M"), FAST)
    assert result.mode.memopt


def test_back_to_back_modes_report_independent_policy_stats():
    trace = filo_stack_trace(depth=6, activation_bytes=1 << 20)
    config = ExperimentConfig(scale=4, iterations=1, sample_timeline=False)
    first = run_trace_mode(trace.scaled(4), "CA:LM", config, model_label="filo")
    second = run_trace_mode(trace.scaled(4), "CA:LM", config, model_label="filo")
    assert first.iteration.policy_stats == second.iteration.policy_stats

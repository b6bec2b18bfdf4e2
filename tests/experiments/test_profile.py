"""The movement profiler (`python -m repro profile`)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig, available_models
from repro.experiments.profile import render, run_profile
from repro.nn.models import MODEL_REGISTRY


def quick_config() -> ExperimentConfig:
    return ExperimentConfig(scale=256, iterations=1)


@pytest.fixture(scope="module")
def tiny_profile():
    return run_profile("tiny", config=quick_config())


def test_available_models_extend_the_registry():
    models = available_models()
    assert "tiny" in models
    assert set(MODEL_REGISTRY) <= set(models)


def test_unknown_model_raises():
    with pytest.raises(ConfigurationError, match="unknown model"):
        run_profile("nosuch", config=quick_config())


def test_profile_forces_tracing_and_moves_data(tiny_profile):
    assert tiny_profile.events, "a profile run must collect events"
    assert tiny_profile.attribution.total_bytes > 0
    # Acceptance: >= 95% of copied bytes attribute to a causing hint,
    # eviction, or placement decision.
    assert tiny_profile.attribution.attributed_fraction >= 0.95


def test_profile_metrics_cover_copies(tiny_profile):
    data = tiny_profile.metrics
    copy_bytes = {
        key: value
        for key, value in data.items()
        if key.startswith("trace.copy_bytes{")
    }
    assert sum(copy_bytes.values()) == tiny_profile.attribution.total_bytes


def test_chrome_trace_includes_counter_tracks(tiny_profile):
    doc = tiny_profile.chrome_trace()
    phs = {e["ph"] for e in doc["traceEvents"]}
    assert {"X", "b", "e", "i", "C", "M"} <= phs
    for record in doc["traceEvents"]:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in record


def test_render_reports_top_movers(tiny_profile):
    text = render(tiny_profile)
    assert "movement profile: tiny under CA:LM" in text
    assert "top movers by cause" in text
    assert "% of bytes attributed" in text


def test_profile_runs_registry_models_too():
    profile = run_profile(
        "vgg116-small", config=ExperimentConfig(scale=2048, iterations=1)
    )
    assert profile.model == "vgg116-small"
    assert profile.events

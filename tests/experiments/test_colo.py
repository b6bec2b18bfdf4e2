"""The co-location experiment: determinism, fairness, attribution."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.colo import WORKLOADS, render, run_colo
from repro.experiments.common import ExperimentConfig

SCALE = 4096  # tiny but contended: colo still forces cross-tenant movement


@pytest.fixture(scope="module")
def result():
    return run_colo(("cnn", "dlrm"), ExperimentConfig(scale=SCALE, iterations=2))


class TestRunColo:
    def test_reports_every_tenant(self, result):
        assert [t.name for t in result.tenants] == ["cnn", "dlrm"]
        for tenant in result.tenants:
            assert tenant.solo_seconds > 0
            assert tenant.colo_seconds > 0

    def test_colocation_slows_tenants_down(self, result):
        # DRAM is sized below the combined footprint, so co-running must
        # cost someone something.
        assert all(t.slowdown >= 1.0 - 1e-9 for t in result.tenants)
        assert max(t.slowdown for t in result.tenants) > 1.0

    def test_fairness_is_max_over_min_slowdown(self, result):
        slowdowns = [t.slowdown for t in result.tenants]
        assert result.fairness == pytest.approx(max(slowdowns) / min(slowdowns))
        assert result.fairness >= 1.0

    def test_makespan_is_latest_finish(self, result):
        assert result.makespan_seconds == pytest.approx(
            max(t.colo_seconds for t in result.tenants)
        )

    def test_deterministic_across_runs(self, result):
        repeat = run_colo(
            ("cnn", "dlrm"), ExperimentConfig(scale=SCALE, iterations=2)
        )
        assert repeat.digest() == result.digest()

    def test_stall_attribution_meets_contract(self, result):
        # The acceptance bar: >= 90% of movement-wait stall time is pinned
        # on a specific (tenant, object) pair.
        assert result.attribution["attributed_fraction"] >= 0.9
        for pair in result.attribution["pairs"]:
            assert pair["stream"] in ("cnn", "dlrm")

    def test_render_mentions_each_tenant_and_digest(self, result):
        text = render(result)
        assert "cnn" in text and "dlrm" in text
        assert "fairness" in text
        assert result.digest() in text

    def test_to_json_shape(self, result):
        payload = result.to_json()
        assert set(payload["tenants"]) == {"cnn", "dlrm"}
        assert payload["digest"] == result.digest()
        assert 0.0 <= payload["attributed_stall_fraction"] <= 1.0


class TestValidation:
    def test_needs_two_tenants(self):
        with pytest.raises(ConfigurationError):
            run_colo(("cnn",), ExperimentConfig(scale=SCALE))

    def test_rejects_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            run_colo(("cnn", "nope"), ExperimentConfig(scale=SCALE))

    def test_rejects_duplicate_tenants(self):
        with pytest.raises(ConfigurationError):
            run_colo(("cnn", "cnn"), ExperimentConfig(scale=SCALE))

    def test_rejects_non_ca_mode(self):
        with pytest.raises(ConfigurationError):
            run_colo(
                ("cnn", "dlrm"),
                ExperimentConfig(scale=SCALE),
                mode_name="2LM:0",
            )

    def test_workload_registry_is_self_describing(self):
        for name, spec in WORKLOADS.items():
            assert spec.name == name
            assert spec.description

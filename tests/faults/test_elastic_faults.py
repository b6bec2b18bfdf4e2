"""Elastic fault sites: churn/resize firing, payload semantics, bisection.

The elastic sites differ from the classic ones in one important way:
``device`` and ``op`` on a churn/resize spec are *payload* (which tenant
departs, which device resizes), not match filters — the injector must
fire them on step index alone (docs/robustness.md, "Elastic operations").
"""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import CHURN, RESIZE, FaultPlan, FaultSpec, fault_plan


def make_injector(*specs, seed=0):
    return FaultInjector(FaultPlan("test", specs=tuple(specs), seed=seed))


class TestElasticEvents:
    def test_churn_fires_on_step_index_with_tenant_payload(self):
        injector = make_injector(
            FaultSpec(site=CHURN, op="t1", start=2, count=1)
        )
        fired = [injector.elastic_events(step) for step in range(4)]
        assert fired[0] == [] and fired[1] == []
        assert fired[2] == [("churn", "t1", 1.0)]
        assert fired[3] == []

    def test_resize_fires_despite_concrete_device_payload(self):
        """Regression guard: a resize spec names its target device, which
        must be treated as payload — never as a site-device match filter
        (a "DRAM" spec used to be unreachable because the elastic site
        itself has no device)."""
        injector = make_injector(
            FaultSpec(site=RESIZE, device="DRAM", start=1, count=1,
                      magnitude=0.5)
        )
        assert injector.elastic_events(0) == []
        assert injector.elastic_events(1) == [("resize", "DRAM", 0.5)]

    def test_every_and_count_windows_apply(self):
        injector = make_injector(
            FaultSpec(site=RESIZE, device="DRAM", start=0, every=3, count=2,
                      magnitude=2.0)
        )
        fired = [bool(injector.elastic_events(step)) for step in range(9)]
        assert fired == [True, False, False, True, False, False,
                         False, False, False]

    def test_multiple_elastic_specs_fire_in_plan_order(self):
        injector = make_injector(
            FaultSpec(site=CHURN, op="t1", start=5, count=1),
            FaultSpec(site=RESIZE, device="DRAM", start=5, count=1,
                      magnitude=0.5),
        )
        fired = [injector.elastic_events(step) for step in range(6)]
        assert fired[:5] == [[], [], [], [], []]
        assert fired[5] == [
            ("churn", "t1", 1.0),
            ("resize", "DRAM", 0.5),
        ]

    def test_disarm_suppresses_elastic_events(self):
        injector = make_injector(
            FaultSpec(site=CHURN, op="t1", start=0, every=1, count=None)
        )
        injector.disarm()
        assert injector.elastic_events(0) == []

    def test_shipped_elastic_ops_plan_covers_both_sites(self):
        plan = fault_plan("elastic-ops")
        sites = {spec.site for spec in plan.specs}
        assert sites == {CHURN, RESIZE}
        # One resize shrinks, one grows back: the plan exercises both the
        # ladder-driven path and the trivial path.
        magnitudes = sorted(
            spec.magnitude for spec in plan.for_site(RESIZE)
        )
        assert magnitudes[0] < 1.0 < magnitudes[-1]


@pytest.mark.chaos
class TestBisect:
    def test_bisect_demo_narrows_to_a_small_window(self):
        from repro.faults.chaos import bisect_plan

        result = bisect_plan(fault_plan("bisect-demo"))
        assert result.ok
        assert result.error
        assert result.window and len(result.window) <= 8
        # The fatal copy fault is inside the reported window.
        rendered = result.render()
        assert "copy[10]" in rendered

    def test_clean_plan_reports_nothing_to_narrow(self):
        from repro.faults.chaos import bisect_plan

        result = bisect_plan(FaultPlan("clean", specs=()))
        assert not result.ok
        assert not result.error
        assert not result.window


@pytest.mark.chaos
def test_purely_elastic_plan_runs_only_the_elastic_scenario():
    """Churn/resize specs never fire at classic seams, so run_chaos must
    not schedule the classic scenarios for a purely elastic plan (they
    would report zero fired faults and trip the coverage check)."""
    from repro.faults.chaos import run_chaos

    report = run_chaos(fault_plan("elastic-ops"))
    scenarios = [outcome.scenario for outcome in report.outcomes]
    assert scenarios == ["session-elastic"]
    assert all(outcome.faults_fired > 0 for outcome in report.outcomes)

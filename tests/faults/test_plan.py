"""Fault plans: spec validation, index arithmetic, replay."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.plan import (
    FAULT_PLANS,
    FaultSpec,
    FiredFault,
    fault_plan,
    replay_plan,
)


def test_spec_rejects_unknown_site():
    with pytest.raises(ConfigurationError):
        FaultSpec(site="gamma-ray")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"start": -1},
        {"every": 0},
        {"count": 0},
        {"probability": 0.0},
        {"probability": 1.5},
    ],
)
def test_spec_rejects_bad_windows(kwargs):
    with pytest.raises(ConfigurationError):
        FaultSpec(site="alloc", **kwargs)


def test_spec_index_arithmetic():
    spec = FaultSpec(site="alloc", start=4, every=5, count=6)
    hits = [i for i in range(30) if spec.matches_index(i)]
    assert hits == [4, 9, 14, 19, 24, 29]


def test_spec_open_ended_count():
    spec = FaultSpec(site="bandwidth", start=0, every=1, count=None)
    assert spec.count is None
    assert all(spec.matches_index(i) for i in range(10))


def test_builtin_plans_are_wellformed():
    for name, plan in FAULT_PLANS.items():
        assert plan.name == name
        assert plan.description
        assert plan.specs
        assert fault_plan(name) is plan


def test_fault_plan_lookup_unknown_name():
    with pytest.raises(ConfigurationError):
        fault_plan("does-not-exist")


def test_replay_plan_pins_each_fired_fault():
    fired = [
        FiredFault(ts=0.1, site="alloc", device="DRAM", op="*", index=3),
        FiredFault(
            ts=0.2, site="copy", device="NVRAM", op="*", index=8,
            detail={"magnitude": 2.0},
        ),
    ]
    plan = replay_plan("replayed", fired, seed=7)
    assert plan.seed == 7
    assert len(plan.specs) == 2
    first, second = plan.specs
    assert (first.site, first.start, first.every, first.count) == ("alloc", 3, 1, 1)
    assert second.device == "NVRAM"
    assert second.magnitude == 2.0
    assert all(spec.probability == 1.0 for spec in plan.specs)

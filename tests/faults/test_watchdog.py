"""PolicyWatchdog: strikes, quarantine, and mid-run fallback."""

import numpy as np
import pytest

from repro.core.policy_api import DelegatingPolicy
from repro.core.session import Session, SessionConfig
from repro.errors import OutOfMemoryError, PolicyError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.policy import FaultyPolicy
from repro.policies.optimizing import OptimizingPolicy
from repro.policies.watchdog import PolicyWatchdog
from repro.telemetry import trace as tracing
from repro.units import KiB, MiB


def make_session(policy):
    return Session(
        SessionConfig(dram=256 * KiB, nvram=4 * MiB, real=True, tracing=True),
        policy=policy,
    )


def faulty_optimizing(*specs, seed=0):
    injector = FaultInjector(FaultPlan("wd", specs=tuple(specs), seed=seed))
    inner = OptimizingPolicy(local_alloc=True)
    return FaultyPolicy(inner, injector)


class ExplodingPlace(DelegatingPolicy):
    """Raises PolicyError from ``place`` a fixed number of times."""

    def __init__(self, inner, *, failures):
        super().__init__(inner)
        self.failures = failures

    def place(self, obj):
        if self.failures > 0:
            self.failures -= 1
            raise PolicyError("boom")
        return self.inner.place(obj)


class LyingPlace(DelegatingPolicy):
    """Violates the placement contract: returns a region it never attached."""

    def place(self, obj):
        self.inner.place(obj)
        return None


class OOMPlace(DelegatingPolicy):
    def place(self, obj):
        raise OutOfMemoryError("DRAM", obj.size, 0)


def test_strike_patches_a_failed_placement_forward():
    watchdog = PolicyWatchdog(
        ExplodingPlace(OptimizingPolicy(local_alloc=True), failures=1)
    )
    with make_session(watchdog) as session:
        array = session.empty(1024, name="x")
        assert array.device  # placed (by the fallback) despite the failure
        assert watchdog.strikes == 1
        assert not watchdog.quarantined
        strikes = [
            e for e in session.tracer.events
            if e.kind == tracing.POLICY_STRIKE
        ]
        assert len(strikes) == 1
        assert strikes[0].args["op"] == "place"


def test_contract_violation_counts_as_strike():
    watchdog = PolicyWatchdog(LyingPlace(OptimizingPolicy(local_alloc=True)))
    with make_session(watchdog) as session:
        array = session.empty(1024, name="x")
        assert array.device
        assert watchdog.strikes == 1
        assert "place" in watchdog.failures[0]


def test_out_of_memory_is_not_absorbed():
    watchdog = PolicyWatchdog(OOMPlace(OptimizingPolicy(local_alloc=True)))
    with make_session(watchdog) as session:
        with pytest.raises(OutOfMemoryError):
            session.empty(1024, name="x")
        assert watchdog.strikes == 0


def test_quarantine_after_max_strikes_routes_to_fallback():
    policy = ExplodingPlace(OptimizingPolicy(local_alloc=True), failures=10)
    watchdog = PolicyWatchdog(policy)
    with make_session(watchdog) as session:
        for i in range(5):
            session.empty(1024, name=f"x{i}")
        assert watchdog.quarantined
        assert watchdog.strikes == 3  # quarantine stops the bleeding
        assert policy.failures == 10 - 3  # inner never consulted again
        quarantines = [
            e for e in session.tracer.events if e.kind == tracing.QUARANTINE
        ]
        assert len(quarantines) == 1
        assert quarantines[0].args["fallback"] == "InterleavePolicy"
        session.manager.check()


def test_dropped_hint_strikes_but_does_not_fail_the_access():
    policy = faulty_optimizing(
        FaultSpec(site="policy", op="will_read", start=0, every=1, count=1)
    )
    watchdog = PolicyWatchdog(policy)
    with make_session(watchdog) as session:
        array = session.empty(1024, name="x")
        payload = np.arange(1024, dtype=np.float32)
        array.write(payload)
        assert np.array_equal(array.read(), payload)  # read survived the fault
        assert watchdog.strikes == 1


def test_full_run_completes_under_persistent_policy_faults():
    """Every policy op faulty: the watchdog quarantines and finishes the run."""
    policy = faulty_optimizing(
        FaultSpec(site="policy", op="*", start=0, every=2, count=None)
    )
    watchdog = PolicyWatchdog(policy)
    with make_session(watchdog) as session:
        payloads = {}
        arrays = {}
        for i in range(8):
            name = f"x{i}"
            arrays[name] = session.empty(4096, name=name)
            payloads[name] = np.full(4096, float(i), dtype=np.float32)
            arrays[name].write(payloads[name])
        assert watchdog.quarantined
        for name, array in arrays.items():
            assert np.array_equal(array.read(), payloads[name])
        session.manager.check()

"""SharedRuntime + per-tenant Session views: namespaces, quotas, refunds."""

import pytest

from repro.core.session import Session, SessionConfig, SharedRuntime
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.memory.device import MemoryDevice
from repro.policies.optimizing import OptimizingPolicy, PolicyStats
from repro.units import MiB


def small_runtime(**overrides):
    cfg = SessionConfig(
        devices=[MemoryDevice.dram(8 * MiB), MemoryDevice.nvram(64 * MiB)],
        **overrides,
    )
    return SharedRuntime(cfg)


def policy():
    return OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True)


class TestTenantViews:
    def test_sessions_share_mechanism(self):
        runtime = small_runtime()
        a = runtime.session(policy(), tenant="a")
        b = runtime.session(policy(), tenant="b")
        assert a.manager is b.manager
        assert a.clock is b.clock
        assert a.heaps is b.heaps
        assert a.policy is not b.policy

    def test_tenants_keep_their_own_policy_stats(self):
        runtime = small_runtime()
        a = runtime.session(policy(), tenant="a")
        b = runtime.session(policy(), tenant="b")
        a.empty(MiB // 4, name="x")
        b.empty(MiB // 4, name="y")
        b.release(b.empty(MiB // 4, name="z"))
        zero = dict.fromkeys(PolicyStats.FIELDS, 0)
        assert a.policy.stats.as_dict() == {**zero, "placed_fast": 1}
        assert b.policy.stats.as_dict() == {**zero, "placed_fast": 2, "retires": 1}

    def test_object_names_are_tenant_namespaced(self):
        runtime = small_runtime()
        a = runtime.session(policy(), tenant="a")
        b = runtime.session(policy(), tenant="b")
        x = a.empty(MiB // 4, name="x")
        y = b.empty(MiB // 4, name="x")
        assert x.obj.name == "a/x"
        assert y.obj.name == "b/x"

    def test_untenanted_session_keeps_plain_names(self):
        runtime = small_runtime()
        session = runtime.session(policy())
        obj = session.empty(MiB // 4, name="plain")
        assert obj.obj.name == "plain"

    def test_standalone_session_builds_private_runtime(self):
        session = Session(
            SessionConfig(
                devices=[MemoryDevice.dram(MiB), MemoryDevice.nvram(MiB)]
            )
        )
        assert session._owns_runtime
        assert isinstance(session.runtime, SharedRuntime)

    def test_attached_session_rejects_runtime_level_config(self):
        runtime = small_runtime()
        with pytest.raises(ConfigurationError):
            Session(SessionConfig(), runtime=runtime)

    def test_close_only_closes_owned_runtime(self):
        runtime = small_runtime()
        session = runtime.session(policy(), tenant="a")
        session.close()  # must NOT shut the shared engine down
        other = runtime.session(policy(), tenant="b")
        other.empty(MiB // 4, name="still-works")
        runtime.close()

    def test_default_policy_when_none_given(self):
        runtime = small_runtime()
        session = runtime.session()
        assert isinstance(session.policy, OptimizingPolicy)


class TestQuotas:
    def test_quota_enforced_for_active_tenant(self):
        runtime = small_runtime()
        runtime.session(policy(), tenant="a", dram_quota=MiB)
        runtime.activate("a")
        manager = runtime.manager
        manager.allocate("DRAM", MiB // 2)
        with pytest.raises(OutOfMemoryError):
            manager.allocate("DRAM", MiB)

    def test_quota_reports_remaining_budget(self):
        runtime = small_runtime()
        runtime.session(policy(), tenant="a", dram_quota=MiB)
        runtime.activate("a")
        runtime.manager.allocate("DRAM", MiB // 2)
        assert runtime.manager.tenant_used("a", "DRAM") == MiB // 2

    def test_other_tenants_unaffected_by_quota(self):
        runtime = small_runtime()
        runtime.session(policy(), tenant="a", dram_quota=MiB // 2)
        runtime.session(policy(), tenant="b")
        runtime.activate("b")
        # b has no quota: may use the whole device.
        runtime.manager.allocate("DRAM", 2 * MiB)

    def test_release_refunds_the_recorded_owner(self):
        runtime = small_runtime()
        runtime.session(policy(), tenant="a", dram_quota=MiB)
        runtime.session(policy(), tenant="b")
        manager = runtime.manager
        runtime.activate("a")
        region = manager.allocate("DRAM", MiB // 2)
        assert manager.tenant_used("a", "DRAM") == MiB // 2
        # Tenant b frees a's region (a cross-tenant eviction): the refund
        # must go to a — the recorded owner — not to the evictor b.
        runtime.activate("b")
        manager.free(region)
        assert manager.tenant_used("a", "DRAM") == 0
        assert manager.tenant_used("b", "DRAM") == 0

    def test_quota_survives_defragment(self):
        runtime = small_runtime()
        runtime.session(policy(), tenant="a", dram_quota=4 * MiB)
        manager = runtime.manager
        runtime.activate("a")
        keep_obj = manager.new_object(MiB // 2, "a/keep")
        first = manager.allocate("DRAM", MiB // 2)
        manager.setprimary(keep_obj, first)
        hole = manager.allocate("DRAM", MiB // 2)
        tail_obj = manager.new_object(MiB // 2, "a/tail")
        tail = manager.allocate("DRAM", MiB // 2)
        manager.setprimary(tail_obj, tail)
        manager.free(hole)
        moved = manager.defragment("DRAM")
        assert moved > 0
        # The owner map was re-keyed on the move: freeing the survivor
        # still refunds tenant a.
        assert manager.tenant_used("a", "DRAM") == MiB
        manager.destroy_object(keep_obj)
        manager.destroy_object(tail_obj)
        assert manager.tenant_used("a", "DRAM") == 0

    def test_set_quota_rejects_unknown_device(self):
        runtime = small_runtime()
        with pytest.raises(ConfigurationError):
            runtime.manager.set_quota("a", "HBM", MiB)

    def test_oom_error_reports_remaining_quota(self):
        runtime = small_runtime()
        runtime.session(policy(), tenant="a", dram_quota=MiB)
        runtime.activate("a")
        runtime.manager.allocate("DRAM", MiB // 2)
        with pytest.raises(OutOfMemoryError) as info:
            runtime.manager.allocate("DRAM", MiB)
        # The error's free figure is the tenant's remaining budget, not the
        # device's free space (the device has several MiB left).
        assert info.value.free <= MiB // 2

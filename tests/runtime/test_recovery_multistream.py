"""RecoveryExhaustedError under multi-stream scheduling (ISSUE satellite).

One tenant's eviction cascade exhausts the ladder while another tenant's
stream has its own copies and allocations in flight. The failure must
surface as the typed terminal error, the surviving tenant's payloads must
be intact, and the object table must pass a full invariant sweep — a
mid-schedule abort never corrupts shared mechanism state.
"""

import hashlib

import numpy as np
import pytest

from repro.core.session import SessionConfig, SharedRuntime
from repro.errors import OutOfMemoryError, RecoveryExhaustedError
from repro.policies.optimizing import OptimizingPolicy
from repro.runtime.recovery import recover_allocation, session_hooks
from repro.runtime.scheduler import StreamScheduler
from repro.units import KiB, MiB


def policy():
    return OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True)


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array.read())).hexdigest()


def _guarded(session, elements: int, name: str):
    """Allocate through the session-level ladder, tagged with the tenant."""

    def attempt():
        return session.empty((elements,), np.uint8, name=name)

    try:
        return attempt()
    except OutOfMemoryError as error:
        return recover_allocation(
            attempt,
            error,
            session_hooks(session),
            tracer=session.tracer,
            tenant=session.tenant,
        )


@pytest.fixture
def runtime():
    rt = SharedRuntime(
        SessionConfig(dram=128 * KiB, nvram=256 * KiB, real=True)
    )
    yield rt
    rt.close()


class TestMultiStreamExhaustion:
    def test_exhaustion_in_one_stream_leaves_the_table_clean(self, runtime):
        hog = runtime.session(policy(), tenant="hog")
        steady = runtime.session(policy(), tenant="steady")
        scheduler = StreamScheduler(runtime.clock, tracer=runtime.tracer)
        runtime.attach_scheduler(scheduler)
        steady_arrays = []
        steady_digests = []

        def steady_stream():
            # Allocations + reads with copies in flight: each new array
            # pressures DRAM, each read may pull a demoted region back.
            for i in range(6):
                arr = steady.from_numpy(
                    np.full(16 * KiB, i, dtype=np.uint8), name=f"s{i}"
                )
                steady_arrays.append(arr)
                steady_digests.append(_digest(arr))
                yield 1e-4, "kernel"
                arr.read()
                yield 1e-4, "kernel"

        def hog_stream():
            # An eviction cascade that outgrows both tiers: the ladder
            # (collect -> evict -> defrag -> cross-tier) must exhaust.
            for i in range(12):
                _guarded(hog, 48 * KiB, f"h{i}")
                yield 1e-4, "kernel"

        scheduler.spawn(
            "steady", steady_stream(),
            activate=lambda: runtime.activate("steady"),
        )
        scheduler.spawn(
            "hog", hog_stream(), activate=lambda: runtime.activate("hog")
        )
        with pytest.raises(RecoveryExhaustedError) as excinfo:
            scheduler.run()
        # The terminal error names the rungs it climbed before giving up.
        assert excinfo.value.steps
        # The shared object table survived the mid-schedule abort: every
        # invariant holds and the steady tenant's payloads are untouched.
        runtime.manager.check()
        for arr, digest in zip(steady_arrays, steady_digests):
            assert _digest(arr) == digest

    def test_survivor_continues_after_failed_tenant_detaches(self, runtime):
        hog = runtime.session(policy(), tenant="hog")
        steady = runtime.session(policy(), tenant="steady")
        scheduler = StreamScheduler(runtime.clock, tracer=runtime.tracer)
        runtime.attach_scheduler(scheduler)

        def steady_stream():
            for i in range(4):
                steady.from_numpy(
                    np.full(8 * KiB, i, dtype=np.uint8), name=f"s{i}"
                )
                yield 1e-4, "kernel"

        def hog_stream():
            for i in range(12):
                _guarded(hog, 48 * KiB, f"h{i}")
                yield 1e-4, "kernel"

        scheduler.spawn(
            "steady", steady_stream(),
            activate=lambda: runtime.activate("steady"),
        )
        scheduler.spawn(
            "hog", hog_stream(), activate=lambda: runtime.activate("hog")
        )
        with pytest.raises(RecoveryExhaustedError):
            scheduler.run()
        # Recovery from the failure: detach the hog, and the survivor has
        # the whole system again.
        runtime.detach("hog")
        assert runtime.manager.tenant_objects("hog") == []
        runtime.activate("steady")
        fresh = steady.from_numpy(
            np.arange(32 * KiB, dtype=np.uint8) % 251, name="after"
        )
        assert fresh.read() is not None
        runtime.manager.check()

    def test_ladder_telemetry_names_the_failing_tenant(self):
        """Recovery-step events carry the tenant id (ISSUE satellite:
        attribution in multi-tenant chaos runs)."""
        from repro.telemetry import trace as tracing

        runtime = SharedRuntime(
            SessionConfig(
                dram=128 * KiB, nvram=256 * KiB, real=True, tracing=True
            )
        )
        try:
            hog = runtime.session(policy(), tenant="hog")
            runtime.session(policy(), tenant="steady")
            scheduler = StreamScheduler(runtime.clock, tracer=runtime.tracer)
            runtime.attach_scheduler(scheduler)

            def hog_stream():
                for i in range(12):
                    _guarded(hog, 48 * KiB, f"h{i}")
                    yield 1e-4, "kernel"

            scheduler.spawn(
                "hog", hog_stream(), activate=lambda: runtime.activate("hog")
            )
            with pytest.raises(RecoveryExhaustedError):
                scheduler.run()
            steps = [
                e for e in runtime.tracer.events
                if e.kind == tracing.RECOVERY_STEP
            ]
            assert steps, "the ladder climbed no rungs before exhausting"
            assert all(e.args.get("tenant") == "hog" for e in steps)
            runtime.manager.check()
        finally:
            runtime.close()

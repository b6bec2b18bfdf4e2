"""Elastic snapshot/restore: pause, serialize, resume — bit-identical.

The contract (docs/robustness.md, "Elastic operations"): a run paused at a
kernel boundary and restored — in this process or a fresh one — continues
to the same full-precision digest as an uninterrupted run, in both the
virtual executor path and the real-backed session path.
"""

import os
import pickle
import subprocess
import sys

import pytest

from repro.core.object import MemObject
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig, run_trace_mode
from repro.nn.models import MODEL_REGISTRY
from repro.workloads.trace import Alloc
from repro.runtime.elastic import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    RuntimeSnapshot,
    checkpoint_trace_mode,
    digest_mode_result,
    load_snapshot,
    resume_snapshot,
    save_snapshot,
)

SCALE = 4096
MODEL = "resnet200-small"
MODE = "CA:LM"


def _config() -> ExperimentConfig:
    return ExperimentConfig(scale=SCALE, iterations=2)


def _trace():
    return MODEL_REGISTRY[MODEL].builder().training_trace().scaled(SCALE)


@pytest.fixture(scope="module")
def uninterrupted_digest() -> str:
    return digest_mode_result(run_trace_mode(_trace(), MODE, _config()))


class TestPauseResume:
    def test_resumed_run_matches_uninterrupted_digest(
        self, uninterrupted_digest
    ):
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=7)
        assert isinstance(snap, RuntimeSnapshot)
        assert snap.kernels_done == 7
        result = resume_snapshot(snap)
        assert digest_mode_result(result) == uninterrupted_digest

    def test_every_pause_point_is_digest_safe(self, uninterrupted_digest):
        """The boundary cases: first kernel, iteration boundary, last few."""
        for pause in (1, 3, 11, 23):
            snap = checkpoint_trace_mode(
                _trace(), MODE, _config(), pause_after=pause
            )
            if isinstance(snap, RuntimeSnapshot):
                result = resume_snapshot(snap)
            else:
                result = snap  # run shorter than the pause point
            assert digest_mode_result(result) == uninterrupted_digest, (
                f"digest diverged for pause_after={pause}"
            )

    def test_chained_checkpoints(self, uninterrupted_digest):
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=5)
        assert isinstance(snap, RuntimeSnapshot)
        again = resume_snapshot(snap, pause_after=12)
        assert isinstance(again, RuntimeSnapshot)
        assert again.kernels_done == 12
        result = resume_snapshot(again)
        assert digest_mode_result(result) == uninterrupted_digest

    def test_completion_before_pause_returns_result(self, uninterrupted_digest):
        result = checkpoint_trace_mode(
            _trace(), MODE, _config(), pause_after=10_000
        )
        assert not isinstance(result, RuntimeSnapshot)
        assert digest_mode_result(result) == uninterrupted_digest

    def test_pause_after_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=0)

    def test_re_pause_must_be_past_the_snapshot(self):
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=5)
        assert isinstance(snap, RuntimeSnapshot)
        with pytest.raises(ConfigurationError):
            resume_snapshot(snap, pause_after=5)


class _Version1Object:
    """Pickles the way the parent build's ``MemObject`` did: slot state
    naming ``_primary``."""

    def __reduce__(self):
        return (
            MemObject.__new__,
            (MemObject,),
            (None, {"id": 0, "size": 64, "_primary": None}),
        )


class TestEnvelope:
    def test_round_trip_through_a_file(self, tmp_path, uninterrupted_digest):
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=9)
        path = save_snapshot(snap, str(tmp_path / "run.snap"))
        loaded = load_snapshot(path)
        assert loaded.kind == "mode-run"
        assert loaded.kernels_done == 9
        assert loaded.label == snap.label
        result = resume_snapshot(loaded)
        assert digest_mode_result(result) == uninterrupted_digest

    def test_2lm_snapshot_without_the_sweep_memo_restores(self, tmp_path):
        """Version 6 snapshots exist with and without ``TwoLMSystem``'s
        sweep-cost memo (it was added without a format bump): a snapshot
        whose memo is dropped before pickling refills it lazily and
        finishes on the uninterrupted run's digest. Kernel 1500 is in the second iteration
        of ``resnet200-small``, with the memo warm."""
        straight = digest_mode_result(run_trace_mode(_trace(), "2LM:M", _config()))
        snap = checkpoint_trace_mode(
            _trace(), "2LM:M", _config(), pause_after=1500
        )
        system = snap.payload.adapter.system
        assert system._sweep_costs
        del system._sweep_costs
        loaded = load_snapshot(save_snapshot(snap, str(tmp_path / "2lm.snap")))
        assert "_sweep_costs" not in vars(loaded.payload.adapter.system)
        assert digest_mode_result(resume_snapshot(loaded)) == straight

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "garbage.snap"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(ConfigurationError):
            load_snapshot(str(path))

    def test_foreign_pickle_is_rejected(self, tmp_path):
        path = tmp_path / "foreign.snap"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ConfigurationError):
            load_snapshot(str(path))

    def test_version_mismatch_is_rejected(self, tmp_path):
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION + 1,
            "snapshot": snap,
        }
        path = tmp_path / "future.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError):
            load_snapshot(str(path))

    def test_version_1_envelope_is_rejected(self, tmp_path):
        """Version 1 predates the plain-slot ``Region.device_name`` /
        ``MemObject.primary``, the ``OrderedDict`` LRU and the allocator's
        address index: such a file must be refused, never half-restored."""
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 1, "snapshot": snap,
        }
        path = tmp_path / "v1.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 1 unsupported"):
            load_snapshot(str(path))

    def test_version_4_envelope_is_rejected(self, tmp_path):
        """Version 4 predates retained events as flat records: its tracers
        pickled a list of ``TraceEvent`` objects where this build keeps
        records behind an ``EventView``."""
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 4, "snapshot": snap,
        }
        path = tmp_path / "v4.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 4 unsupported"):
            load_snapshot(str(path))

    def test_version_5_envelope_is_rejected(self, tmp_path):
        """Version 5 predates the run-length 2LM tag store: a paused ``2LM:*``
        run pickled a ``DramCacheSim`` holding per-set numpy arrays where
        this build keeps run bounds and run states."""
        snap = checkpoint_trace_mode(_trace(), "2LM:M", _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 5, "snapshot": snap,
        }
        path = tmp_path / "v5.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 5 unsupported"):
            load_snapshot(str(path))

    def test_version_6_envelope_is_rejected(self, tmp_path):
        """Version 6 predates the monitor-only tier running the full tier's
        typed bodies: its cheap tracer pickled no bound ``note_event`` as
        ``_event``, so it would restore retaining every event."""
        config = ExperimentConfig(scale=SCALE, iterations=2, monitor=True)
        snap = checkpoint_trace_mode(_trace(), MODE, config, pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 6, "snapshot": snap,
        }
        path = tmp_path / "v6.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 6 unsupported"):
            load_snapshot(str(path))

    def test_version_7_envelope_is_rejected(self, tmp_path):
        """Version 7 predates the boundary-tag allocator: its heaps pickled
        a block list and an address index where this build keeps ``_used``,
        ``_free_sizes`` and ``_free_ends``."""
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 7, "snapshot": snap,
        }
        path = tmp_path / "v7.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 7 unsupported"):
            load_snapshot(str(path))

    def test_version_8_envelope_is_rejected(self, tmp_path):
        """Version 8 predates both monitored tiers folding in their
        ``_event``: its cheap tracer pickled ``note_event`` bound as its own
        ``_event``, so it would call this build's intake without the
        stream."""
        config = ExperimentConfig(scale=SCALE, iterations=2, monitor=True)
        snap = checkpoint_trace_mode(_trace(), MODE, config, pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 8, "snapshot": snap,
        }
        path = tmp_path / "v8.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 8 unsupported"):
            load_snapshot(str(path))

    def test_version_9_envelope_is_rejected(self, tmp_path):
        """Version 9 predates the copy engine's per-pair plans: its engine
        pickled a ``_thread_cache`` keyed on bandwidth models' ``id()``
        where this build keeps ``_plans``."""
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 9, "snapshot": snap,
        }
        path = tmp_path / "v9.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 9 unsupported"):
            load_snapshot(str(path))

    def test_version_10_envelope_is_rejected(self, tmp_path):
        """Version 10 predates the executor's timeline frame and the
        adapter's heap plans: its timelines pickled three private columns
        each, where this build's tracks share one time and label column."""
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 10, "snapshot": snap,
        }
        path = tmp_path / "v10.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 10 unsupported"):
            load_snapshot(str(path))

    def test_version_11_envelope_is_rejected(self, tmp_path):
        """Version 11 predates slotted trace events. Its ``Alloc`` pickled
        a ``__dict__`` state, which this build's slotted frozen dataclass
        reads field by field, so it would load silently wrong: a dict-state
        ``Alloc('w1')`` unpickles as ``Alloc(tensor='tensor')``."""

        class DictStateAlloc:
            def __reduce__(self):
                return object.__new__, (Alloc,), {"tensor": "w1"}

        assert pickle.loads(pickle.dumps(DictStateAlloc())) == Alloc("tensor")
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 11, "snapshot": snap,
        }
        path = tmp_path / "v11.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 11 unsupported"):
            load_snapshot(str(path))

    def test_version_12_envelope_is_rejected(self, tmp_path):
        """Version 12 predates one monitor tier: a monitored run that kept
        no records pickled a ``_MonitorOnlyTracer``, a class this build
        does not have, and a monitor with a ``copy_cause`` field."""
        config = ExperimentConfig(scale=SCALE, iterations=2, monitor=True)
        snap = checkpoint_trace_mode(_trace(), MODE, config, pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 12, "snapshot": snap,
        }
        path = tmp_path / "v12.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 12 unsupported"):
            load_snapshot(str(path))

    def test_version_13_envelope_is_rejected(self, tmp_path):
        """Version 13 predates the machine and 2LM cache constants: a
        paused run pickled ``ExecutionParams`` with ``peak_flops`` and the
        thread counts, and an ``ExperimentConfig`` with ``copy_overhead``,
        fields this build does not have."""
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 13, "snapshot": snap,
        }
        path = tmp_path / "v13.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 13 unsupported"):
            load_snapshot(str(path))

    def test_version_14_envelope_is_rejected(self, tmp_path):
        """Version 14 predates per-policy stats: a paused run pickled
        ``PolicyStats`` over registry counters and a ``DataManager`` with
        a metrics registry, fields this build does not have."""
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        envelope = {
            "format": SNAPSHOT_FORMAT, "version": 14, "snapshot": snap,
        }
        path = tmp_path / "v14.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="version 14 unsupported"):
            load_snapshot(str(path))

    def test_slotted_trace_round_trips_through_a_snapshot(self, tmp_path):
        """A paused run's annotated trace is frozen, slotted events: it
        loads equal, event by event, with no instance ``__dict__``."""
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=3)
        loaded = load_snapshot(save_snapshot(snap, str(tmp_path / "t.snap")))
        before, after = snap.payload.annotated, loaded.payload.annotated
        assert after == before and after.events is not before.events
        assert [type(e) for e in after.events] == [type(e) for e in before.events]
        assert after.tensors == before.tensors
        assert not any(hasattr(e, "__dict__") for e in after.events)
        assert after.prepared is None

    def test_stale_class_layout_is_rejected_with_the_typed_error(
        self, tmp_path
    ):
        """A real version-1 file cannot even be unpickled — its objects carry
        a ``_primary`` slot this build no longer has — and that failure,
        which happens before the version field is readable, must surface as
        the same typed error."""
        envelope = {
            "format": SNAPSHOT_FORMAT,
            "version": 1,
            "snapshot": _Version1Object(),
        }
        path = tmp_path / "stale.snap"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ConfigurationError, match="_primary"):
            load_snapshot(str(path))

    def test_wrong_kind_cannot_resume(self):
        snap = RuntimeSnapshot(
            kind="chaos", payload=None, watermarks={}, virtual_time=0.0,
            kernels_done=0,
        )
        with pytest.raises(ConfigurationError):
            resume_snapshot(snap)


class TestMonitorOnlyRoundTrip:
    def test_paused_monitor_only_run_ends_with_the_uninterrupted_snapshot(
        self, tmp_path
    ):
        """A monitored run that keeps no records, paused mid-run, written,
        read back and resumed ends with the monitor state of the
        uninterrupted run, plus exactly the two checkpoint events the pause
        itself reports."""
        from repro.telemetry.monitor import MonitorConfig
        from repro.telemetry.trace import RESTORE, SCHEMA, SNAPSHOT

        monitor_config = MonitorConfig(window_seconds=0.002, ring_capacity=4096)
        config = ExperimentConfig(
            scale=SCALE, iterations=2, monitor=True, monitor_config=monitor_config
        )
        whole = run_trace_mode(_trace(), MODE, config).monitor
        snap = checkpoint_trace_mode(_trace(), MODE, config, pause_after=7)
        path = save_snapshot(snap, str(tmp_path / "monitor.snap"))
        result = resume_snapshot(load_snapshot(path))
        assert len(result.run.trace) == 0  # still keeps no records
        resumed = result.monitor
        # The ring holds the records the tracer stamped, kind at index 1.
        assert resumed.ring._ring[0][1] in SCHEMA

        def state(monitor):
            return (
                monitor.snapshot(recent_windows=1 << 20).to_json(),
                [e for e in monitor.ring.snapshot()
                 if e.kind not in (SNAPSHOT, RESTORE)],
                monitor.latency_summaries(),
            )

        got, ring, latencies = state(resumed)
        assert got["totals"]["snapshots"] == got["totals"]["restores"] == 1
        got["totals"]["snapshots"] = got["totals"]["restores"] = 0
        got["events_seen"] -= 2
        paused_in = int(snap.virtual_time / monitor_config.window_seconds)
        (window,) = [w for w in got["recent_windows"] if w["index"] == paused_in]
        window["events"] -= 2
        assert len(got["recent_windows"]) > 1
        assert (got, ring, latencies) == state(whole)


class TestCrossProcess:
    def test_fresh_process_restore_is_bit_identical(
        self, tmp_path, uninterrupted_digest
    ):
        """The acceptance check: snapshot here, restore in a new process."""
        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=13)
        assert isinstance(snap, RuntimeSnapshot)
        path = save_snapshot(snap, str(tmp_path / "xproc.snap"))
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        code = (
            "import sys\n"
            "from repro.runtime.elastic import ("
            "load_snapshot, resume_snapshot, digest_mode_result)\n"
            f"snap = load_snapshot({path!r})\n"
            "result = resume_snapshot(snap)\n"
            "print(digest_mode_result(result))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == uninterrupted_digest


class TestRealBackedRoundTrip:
    def test_real_session_pickle_round_trip_matches_digests(self):
        """Real-backed runs snapshot too (the bisector's foundation): pickle
        a mid-workload session + scripted workload, finish both copies, and
        every surviving array's payload digest must match."""
        from repro.faults.chaos import (
            REAL_DRAM,
            REAL_NVRAM,
            ScriptedWorkload,
            _build_session,
        )
        from repro.faults.plan import FaultPlan

        plan = FaultPlan("rt-clean", specs=())
        session, _ = _build_session(
            plan, real=True, dram=REAL_DRAM, nvram=REAL_NVRAM
        )
        workload = ScriptedWorkload()
        with session:
            for _ in range(9):
                workload.run_step(session)
            blob = pickle.dumps(
                (session, workload), pickle.HIGHEST_PROTOCOL
            )
            while workload.step < 18:
                workload.run_step(session)
            original = workload.digests()
        restored_session, restored_workload = pickle.loads(blob)
        with restored_session:
            while restored_workload.step < 18:
                restored_workload.run_step(restored_session)
            assert restored_workload.digests() == original
            restored_session.manager.check()


class TestCopyEngineRoundTrip:
    def test_restored_engine_charges_the_restored_heaps(self):
        """The engine's pair plans bind the heaps' traffic counters, so they
        are not pickled: a session restored mid-run rebuilds them from the
        restored heaps. Its next copy costs the same seconds as the
        original's and charges the restored heaps, never the originals."""
        from repro.faults.chaos import ScriptedWorkload, _build_session
        from repro.faults.plan import FaultPlan
        from repro.units import KiB

        session, _ = _build_session(FaultPlan("rt-copy", specs=()), real=True)
        workload = ScriptedWorkload()

        def charged(s):
            return [
                (s.heaps[name].traffic.read_bytes, s.heaps[name].traffic.write_bytes)
                for name in ("DRAM", "NVRAM")
            ]

        def next_copy(s):
            return s.engine.copy(s.heaps["DRAM"], 0, s.heaps["NVRAM"], 0, 48 * KiB)

        with session:
            for _ in range(9):
                workload.run_step(session)
            assert session.engine._copy_seq > 0  # the pair plans are warm
            restored = pickle.loads(pickle.dumps(session, pickle.HIGHEST_PROTOCOL))
            assert charged(restored) == charged(session)
            first = next_copy(session)
            after = charged(session)
            with restored:
                again = next_copy(restored)
                assert again.seconds.hex() == first.seconds.hex()
                assert charged(restored) == after
                assert charged(session) == after
                assert restored.clock.now == session.clock.now


class TestAdapterRoundTrip:
    def test_restored_adapter_charges_the_restored_heaps(self):
        """The adapter's heap plans bind the heaps' traffic counters, so they
        are not pickled: a restored adapter rebuilds them, prices its next
        kernel to the same bits and charges the restored heaps only."""
        from repro.workloads.trace import Kernel

        snap = checkpoint_trace_mode(_trace(), MODE, _config(), pause_after=5)
        adapter = snap.payload.adapter
        assert adapter._plans  # warm: five kernels have run
        restored = pickle.loads(pickle.dumps(adapter, pickle.HIGHEST_PROTOCOL))
        assert restored._plans == {}
        name = next(iter(adapter.objects))
        kernel = Kernel("probe", (name,), (name,), 1.0e9)

        def charged(a):
            return {d: (s.read_bytes, s.write_bytes) for d, s in a.traffic().items()}

        before = charged(adapter)
        first = adapter.kernel(kernel, None)
        after = charged(adapter)
        again = restored.kernel(kernel, None)
        assert [v.hex() for v in (again.compute, again.dram, again.nvram, again.fixed)] == [
            v.hex() for v in (first.compute, first.dram, first.nvram, first.fixed)
        ]
        assert charged(restored) == after != before
        assert charged(adapter) == after

    def test_restored_2lm_adapter_rebuilds_its_line_spans(self):
        """The 2LM adapter's line spans and its allocator's non-empty-bin
        mask are derived state: neither is pickled, both are rebuilt on
        restore, and the restored adapter's next kernel (two full passes and
        a tail per operand) charges the restored system identically."""
        from repro.workloads.trace import Kernel

        snap = checkpoint_trace_mode(_trace(), "2LM:M", _config(), pause_after=5)
        adapter = snap.payload.adapter
        allocator = adapter.system.allocator
        assert adapter._read_spans and allocator._mask  # five kernels have run
        assert "_read_spans" not in adapter.__getstate__()
        assert "_write_spans" not in adapter.__getstate__()
        assert "_mask" not in allocator.__getstate__()
        restored = pickle.loads(pickle.dumps(adapter, pickle.HIGHEST_PROTOCOL))
        assert restored._read_spans == adapter._read_spans
        assert restored._write_spans == adapter._write_spans
        assert restored.system.allocator._mask == allocator._mask
        restored.system.allocator.check_invariants()
        name = next(iter(adapter.offsets))
        kernel = Kernel("probe", (name,), (name,), 1.0e9, read_factor=2.5,
                        write_factor=2.0)

        def charged(a):
            traffic = {d: (s.read_bytes, s.write_bytes) for d, s in a.traffic().items()}
            return traffic, a.cache_stats()

        first = adapter.kernel(kernel, None)
        again = restored.kernel(kernel, None)
        assert [v.hex() for v in (again.compute, again.dram, again.nvram, again.fixed)] == [
            v.hex() for v in (first.compute, first.dram, first.nvram, first.fixed)
        ]
        assert charged(restored) == charged(adapter)

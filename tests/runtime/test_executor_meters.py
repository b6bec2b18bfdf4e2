"""The run loop's bound meters against the adapters' public dicts.

``Executor.stream`` binds each adapter's meter sources once and reads
``used_bytes`` / ``read_bytes + write_bytes`` off them at every event. The
oracle here never touches those sources: a recording adapter snapshots the
public ``occupancy()`` / ``traffic()`` dicts after every event entry point
returns, and the test replays the trace's events over those snapshots to
recompute what ``peak_occupancy`` and every timeline sample must be.
"""

import pytest

from repro.core.session import Session, SessionConfig
from repro.memory.device import MemoryDevice
from repro.policies.optimizing import OptimizingPolicy
from repro.runtime.executor import CachedArraysAdapter, Executor, TwoLMAdapter
from repro.runtime.gc import GcConfig
from repro.runtime.kernel import ExecutionParams
from repro.twolm.system import TwoLMSystem
from repro.units import KiB, MiB
from repro.workloads.annotate import annotate
from repro.workloads.synthetic import filo_stack_trace
from repro.workloads.trace import (
    Alloc,
    Archive,
    Kernel,
    Retire,
    WillRead,
    WillWrite,
)

ITERATIONS = 2
TENSOR_EVENTS = (
    (Alloc, "alloc"),
    (Retire, "release"),
    (Archive, "archive"),
    (WillRead, "hint_read"),
    (WillWrite, "hint_write"),
)


def _trace():
    # memopt: frees are Retire events, so every adapter call below is one
    # trace event (no GC-driven releases between events).
    return annotate(
        filo_stack_trace(depth=8, activation_bytes=256 * KiB), memopt=True
    )


def recording(adapter_cls):
    """``adapter_cls`` plus a log of the public dicts after each event call."""

    class Recording(adapter_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.calls = [[]]  # per iteration: (event key, occupancy, traffic)
            self.boundaries = [self.public_state()]  # start, then each end

        def public_state(self):
            traffic = {
                device: snap.total_bytes
                for device, snap in self.traffic().items()
            }
            return self.occupancy(), traffic

        def _log(self, key):
            self.calls[-1].append((key, *self.public_state()))

        def kernel(self, kernel, trace):
            timing = super().kernel(kernel, trace)
            self._log(("kernel", kernel.name))
            return timing

        def iteration_end(self):
            super().iteration_end()
            self.boundaries.append(self.public_state())
            self.calls.append([])

    def tensor_call(method):
        def call(self, target):  # a tensor name, or alloc's TensorSpec
            getattr(super(Recording, self), method)(target)
            self._log((method, getattr(target, "name", target)))

        return call

    for _, method in TENSOR_EVENTS:
        setattr(Recording, method, tensor_call(method))
    return Recording


def _event_key(event):
    if isinstance(event, Kernel):
        return ("kernel", event.name)
    for cls, method in TENSOR_EVENTS:
        if isinstance(event, cls):
            return (method, event.tensor)
    return None  # IterEnd / GcDefer: no adapter call, no state change


def oracle(adapter, trace, prefix=""):
    """(peaks per iteration, samples per track) from the recorded dicts."""
    peaks = []
    samples: dict[str, list[tuple[float, str]]] = {}

    def sample(state, label):
        occupancy, traffic = state
        for device, used in occupancy.items():
            samples.setdefault(prefix + device, []).append((used, label))
        samples.setdefault(prefix + "total", []).append(
            (sum(occupancy.values()), label)
        )
        for device, total in traffic.items():
            samples.setdefault(f"{prefix}traffic:{device}", []).append(
                (total, label)
            )

    for index in range(ITERATIONS):
        state = adapter.boundaries[index]
        sample(state, "iteration-start")
        calls = iter(adapter.calls[index])
        pending = next(calls, None)
        peak: dict[str, int] = {}
        for event in trace.events:
            # An event that reached the adapter moved the state to what was
            # logged when its call returned; any other event (IterEnd, an
            # already-live persistent Alloc) leaves the state where it was.
            if pending is not None and pending[0] == _event_key(event):
                state = pending[1:]
                pending = next(calls, None)
            for device, used in state[0].items():
                if used > peak.get(device, 0):
                    peak[device] = used
            if isinstance(event, (Kernel, Retire)):
                sample(state, "")
        assert pending is None, f"adapter call {pending[0]} matched no event"
        peaks.append(peak)
        sample(adapter.boundaries[index + 1], "iteration-end")
    return peaks, samples


def assert_matches_oracle(run, adapter, trace, prefix=""):
    peaks, samples = oracle(adapter, trace, prefix)
    assert [it.peak_occupancy for it in run.iterations] == peaks
    assert list(run.occupancy_timeline) == list(samples)
    for name, timeline in run.occupancy_timeline.items():
        recorded = [
            (value, label)
            for _, value, label in timeline.to_dict()["samples"]
        ]
        assert recorded == samples[name], name


def ca_executor(*, dram=MiB, async_movement=False, stream_name=""):
    session = Session(
        SessionConfig(
            dram=dram, nvram=64 * MiB, async_movement=async_movement
        ),
        policy=OptimizingPolicy(local_alloc=True),
    )
    adapter = recording(CachedArraysAdapter)(session, ExecutionParams())
    return Executor(
        adapter,
        gc_config=GcConfig(trigger_bytes=8 * MiB),
        stream_name=stream_name,
    )


@pytest.mark.parametrize("async_movement", [False, True])
@pytest.mark.parametrize("stream_name", ["", "tenant0"])
def test_cachedarrays_meters_match_public_dicts(async_movement, stream_name):
    executor = ca_executor(
        async_movement=async_movement, stream_name=stream_name
    )
    trace = _trace()
    run = executor.run(trace, iterations=ITERATIONS)
    prefix = f"{stream_name}/" if stream_name else ""
    assert list(run.occupancy_timeline) == [
        f"{prefix}DRAM", f"{prefix}NVRAM", f"{prefix}total",
        f"{prefix}traffic:DRAM", f"{prefix}traffic:NVRAM",
    ]
    assert_matches_oracle(run, executor.adapter, trace, prefix)
    # The trace overflows DRAM, so both devices' meters really moved.
    steady = run.steady_state()
    assert steady.peak_occupancy["NVRAM"] > 0
    assert MiB // 2 < steady.peak_occupancy["DRAM"] <= MiB


def test_meters_follow_a_midrun_resize():
    """Resizing mutates the bound allocator in place: the second leg's
    samples and peak come from the grown heap, not a stale binding."""
    executor = ca_executor(dram=MiB)
    trace = _trace()
    executor.pause_after = 9
    assert executor.run(trace, iterations=ITERATIONS) is None
    executor.adapter.session.runtime.resize("DRAM", 3 * MiB)
    executor.pause_after = None
    run = executor.run(trace, iterations=ITERATIONS)
    assert_matches_oracle(run, executor.adapter, trace)
    assert run.steady_state().peak_occupancy["DRAM"] > MiB


def test_twolm_meters_match_public_dicts():
    system = TwoLMSystem(
        MemoryDevice.dram(MiB), MemoryDevice.nvram(64 * MiB), line_size=4096
    )
    adapter = recording(TwoLMAdapter)(system, ExecutionParams())
    executor = Executor(adapter, gc_config=GcConfig(trigger_bytes=8 * MiB))
    trace = _trace()
    run = executor.run(trace, iterations=ITERATIONS)
    assert list(run.occupancy_timeline) == [
        "NVRAM", "total", "traffic:DRAM", "traffic:NVRAM",
    ]
    assert_matches_oracle(run, adapter, trace)
    assert run.steady_state().peak_occupancy["NVRAM"] > 0


def test_a_stream_without_timelines_skips_the_per_event_sampler(monkeypatch):
    """Whether a stream samples is decided once, where its tracks are bound:
    with ``sample_timeline=False`` (every serving request) the kernel and
    retire sites never enter ``_sample``; only the two per-iteration
    boundary samples still ask, and record nothing."""
    entered = []
    sample = Executor._sample
    monkeypatch.setattr(
        Executor,
        "_sample",
        lambda self, tracks, label="": entered.append(label)
        or sample(self, tracks, label),
    )
    trace = _trace()
    per_event = sum(isinstance(e, (Kernel, Retire)) for e in trace.events)
    boundaries = ["iteration-start", "iteration-end"] * ITERATIONS

    executor = ca_executor()
    executor.sample_timeline = False
    run = executor.run(trace, iterations=ITERATIONS)
    assert entered == boundaries
    assert run.occupancy_timeline == {}

    del entered[:]
    sampled = ca_executor().run(trace, iterations=ITERATIONS)
    assert len(entered) == len(boundaries) + per_event * ITERATIONS
    assert len(sampled.occupancy_timeline["total"]) == len(entered)
    # Sampling is observation only: the simulated run is the same run.
    assert [it.seconds for it in sampled.iterations] == [
        it.seconds for it in run.iterations
    ]


def plain_ca_executor(dram=MiB):
    session = Session(
        SessionConfig(dram=dram, nvram=64 * MiB),
        policy=OptimizingPolicy(local_alloc=True),
    )
    return Executor(
        CachedArraysAdapter(session, ExecutionParams()),
        gc_config=GcConfig(trigger_bytes=8 * MiB),
    )


def test_a_backwards_sample_is_refused_and_leaves_the_tracks_aligned():
    """The stream's tracks share one time column: a sample stamped before
    the last one raises the per-track error text naming the first track,
    and no track grows."""
    executor = plain_ca_executor()
    run = executor.run(_trace(), iterations=1)
    lengths = {name: len(t) for name, t in run.occupancy_timeline.items()}
    assert len(set(lengths.values())) == 1
    last = run.occupancy_timeline["DRAM"].times()[-1]
    executor.adapter.clock.now = last / 2
    with pytest.raises(
        ValueError,
        match=rf"^timeline 'DRAM': time went backwards \({last / 2} < {last}\)$",
    ):
        executor.run(_trace(), iterations=1)
    assert {name: len(t) for name, t in run.occupancy_timeline.items()} == lengths


def test_a_paused_pickled_and_resumed_run_keeps_its_tracks_aligned():
    """The tracks pickle with the frame they share: after a restore, every
    sample still lands in every track, and the series equal an
    uninterrupted run's."""
    import pickle

    trace = _trace()
    whole = plain_ca_executor().run(trace, iterations=ITERATIONS)
    executor = plain_ca_executor()
    executor.pause_after = 9
    assert executor.run(trace, iterations=ITERATIONS) is None
    restored = pickle.loads(pickle.dumps(executor, pickle.HIGHEST_PROTOCOL))
    restored.pause_after = None
    run = restored.run(trace, iterations=ITERATIONS)
    assert list(run.occupancy_timeline) == list(whole.occupancy_timeline)
    for name, timeline in run.occupancy_timeline.items():
        assert timeline.to_dict() == whole.occupancy_timeline[name].to_dict()
    assert [it.peak_occupancy for it in run.iterations] == [
        it.peak_occupancy for it in whole.iterations
    ]
    # Restored tracks still share their time and label columns: a sample
    # taken after the run is seen by all of them at once.
    lengths = {len(t) for t in run.occupancy_timeline.values()}
    restored._sample(restored._bind_tracks(restored.adapter.meters()), "probe")
    assert {len(t) for t in run.occupancy_timeline.values()} == {lengths.pop() + 1}

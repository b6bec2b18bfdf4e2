"""Annotation pass: Free -> Retire/GcDefer, archive insertion, and the
memo that walks a trace once per content and option set."""

import importlib
import pickle
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.workloads.annotate import KEPT_ANNOTATIONS, annotate
from repro.workloads.signatures import (
    pointer_chase_trace,
    scan_trace,
    tiny_objects_trace,
)
from repro.workloads.synthetic import (
    filo_stack_trace,
    random_reuse_trace,
    shifting_reuse_trace,
    streaming_trace,
)
from repro.workloads.trace import (
    Alloc,
    Archive,
    Free,
    GcDefer,
    IterEnd,
    Kernel,
    KernelTrace,
    Retire,
    TensorSpec,
)


def test_memopt_turns_frees_into_retires():
    annotated = annotate(streaming_trace(stages=4), memopt=True)
    assert not any(isinstance(e, Free) for e in annotated.events)
    assert not any(isinstance(e, GcDefer) for e in annotated.events)
    assert sum(isinstance(e, Retire) for e in annotated.events) == 5


def test_gc_mode_turns_frees_into_defers():
    annotated = annotate(streaming_trace(stages=4), memopt=False)
    assert not any(isinstance(e, Retire) for e in annotated.events)
    assert sum(isinstance(e, GcDefer) for e in annotated.events) == 5


def test_kernel_order_preserved():
    raw = filo_stack_trace(depth=6)
    annotated = annotate(raw, memopt=True)
    raw_kernels = [k.name for k in raw.kernels()]
    annotated_kernels = [k.name for k in annotated.kernels()]
    assert raw_kernels == annotated_kernels


def test_archive_inserted_after_forward_kernels():
    annotated = annotate(filo_stack_trace(depth=4), memopt=True)
    events = annotated.events
    for index, event in enumerate(events):
        if isinstance(event, Kernel) and event.phase == "forward":
            following = events[index + 1 : index + 1 + len(event.reads)]
            archived = {e.tensor for e in following if isinstance(e, Archive)}
            # forward kernels archive their read operands (Section III-E)
            assert archived.issubset(set(event.reads))
            assert archived  # at least one operand archived


def test_no_archive_after_backward_kernels():
    annotated = annotate(filo_stack_trace(depth=4), memopt=True)
    events = annotated.events
    for index, event in enumerate(events):
        if isinstance(event, Kernel) and event.phase != "forward":
            next_event = events[index + 1] if index + 1 < len(events) else None
            assert not isinstance(next_event, Archive)


def test_archive_skipped_for_immediately_dead_tensors():
    annotated = annotate(streaming_trace(stages=4), memopt=True)
    # stream stages free their input right after the kernel: archiving it
    # would be hint noise, so no Archive should name a just-freed tensor.
    events = annotated.events
    for index, event in enumerate(events):
        if isinstance(event, Archive):
            assert not isinstance(events[index + 1], Retire) or (
                events[index + 1].tensor != event.tensor
            )


def test_archive_hints_can_be_disabled():
    annotated = annotate(filo_stack_trace(depth=4), memopt=True, archive_hints=False)
    assert not any(isinstance(e, Archive) for e in annotated.events)


def test_annotation_validates_input():
    from repro.workloads.trace import Alloc, IterEnd, TensorSpec

    bad = KernelTrace()
    bad.add_tensor(TensorSpec("a", 64))
    bad.events = [Alloc("a"), Alloc("a"), IterEnd()]
    with pytest.raises(TraceError):
        annotate(bad, memopt=True)


def test_annotated_name_encodes_mode():
    raw = streaming_trace(stages=2)
    assert "M" in annotate(raw, memopt=True).name.split(":")[-1]
    assert "gc" in annotate(raw, memopt=False).name.split(":")[-1]


# -- the output is valid by construction -------------------------------------

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))
from test_trace_fuzz import build_trace  # noqa: E402

OPTIONS = [
    (memopt, archive_hints, lookahead)
    for memopt in (True, False)
    for archive_hints in (True, False)
    for lookahead in range(4)
]

fuzz_traces = st.builds(
    build_trace,
    st.integers(0, 2**31),
    st.integers(2, 24),
    st.integers(1, 40),
)
generated_traces = st.one_of(
    fuzz_traces,
    st.builds(streaming_trace, st.integers(1, 6)),
    st.builds(filo_stack_trace, st.integers(1, 6)),
    st.builds(
        random_reuse_trace, st.integers(2, 8), st.integers(1, 24),
        seed=st.integers(0, 99),
    ),
    st.builds(
        shifting_reuse_trace, st.integers(2, 8), st.integers(1, 12),
        st.integers(1, 3), seed=st.integers(0, 99),
    ),
    st.builds(
        pointer_chase_trace, st.integers(2, 12), steps=st.integers(1, 12),
        fanout=st.integers(1, 2), seed=st.integers(0, 99),
    ),
    st.builds(
        scan_trace, st.integers(1, 3), passes=st.integers(1, 3),
        seed=st.integers(0, 99),
    ),
    st.builds(
        tiny_objects_trace, st.integers(1, 12), waves=st.integers(1, 3),
        temps_per_wave=st.integers(1, 4), touches_per_wave=st.integers(1, 4),
        seed=st.integers(0, 99),
    ),
)


@given(trace=generated_traces)
@settings(max_examples=60, deadline=None)
def test_every_annotation_of_a_valid_trace_is_valid(trace):
    """``annotate`` never checks its output: every option set's output
    must pass ``validate()`` anyway."""
    for memopt, archive_hints, lookahead in OPTIONS:
        annotate(
            trace, memopt=memopt, archive_hints=archive_hints, lookahead=lookahead
        ).validate()


def _corrupt(trace, data):
    """One edit at a random position: drop, repeat or insert an event."""
    events = trace.events
    at = data.draw(st.integers(0, len(events)))
    names = [*trace.tensors, "ghost"]
    name = data.draw(st.sampled_from(names))
    edit = data.draw(st.sampled_from(
        ["drop", "repeat", "alloc", "free", "retire", "archive", "kernel",
         "bad factor"]
    ))
    if edit == "drop" and at < len(events):
        del events[at]
    elif edit == "repeat" and at < len(events):
        events.insert(at, events[at])
    elif edit == "bad factor":
        events.insert(at, Kernel("bad", (), (), 1.0, read_factor=-1.0))
    else:
        event = {
            "alloc": Alloc, "free": Free, "retire": Retire, "archive": Archive,
            "kernel": lambda t: Kernel("k", (t,), (), 1.0),
            "drop": Free, "repeat": Alloc,
        }[edit](name)
        events.insert(at, event)


@given(trace=generated_traces, data=st.data())
@settings(max_examples=80, deadline=None)
def test_an_invalid_trace_raises_what_validate_raises(trace, data):
    """The rewrite walk checks as it goes: on any input it raises exactly
    the ``TraceError`` text ``validate()`` raises, and nothing else."""
    _corrupt(trace, data)
    try:
        trace.validate()
    except TraceError as err:
        expected = str(err)
    else:
        expected = None
    memopt, archive_hints, lookahead = data.draw(st.sampled_from(OPTIONS))
    try:
        annotate(
            trace, memopt=memopt, archive_hints=archive_hints, lookahead=lookahead
        )
    except TraceError as err:
        assert str(err) == expected
    else:
        assert expected is None


# -- one walk per content and option set -------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """Count the rewrite walks ``annotate`` makes."""
    module = importlib.import_module("repro.workloads.annotate")
    counted = []
    rewrite = module._rewrite

    def counting(trace, *args):
        counted.append(trace.name)
        return rewrite(trace, *args)

    monkeypatch.setattr(module, "_rewrite", counting)
    return counted


def test_a_repeat_annotation_is_not_walked_again(walks):
    raw = filo_stack_trace(depth=4)
    first = annotate(raw, memopt=True)
    again = annotate(raw, memopt=True)
    assert len(walks) == 1
    assert again == first and again is not first
    assert again.events is not first.events
    assert again.tensors is not first.tensors
    assert raw.peak_live_bytes() == raw.prepared.footprint


@pytest.mark.parametrize(
    "change",
    [
        lambda t: t.append(IterEnd()),
        lambda t: t.add_tensor(TensorSpec("extra", 64)),
        lambda t: t.events.__setitem__(-1, Alloc("extra2")),
        lambda t: setattr(t, "name", "renamed"),
    ],
    ids=["append", "add_tensor", "setitem", "name"],
)
def test_a_changed_trace_is_walked_again(walks, change):
    """Each change forces a fresh walk, whose result (or error) is what a
    trace with the new content and no memo gives."""
    raw = streaming_trace(stages=3)
    raw.add_tensor(TensorSpec("extra2", 64))
    annotate(raw, memopt=False)
    change(raw)
    twin = KernelTrace(dict(raw.tensors), list(raw.events), raw.name)
    try:
        expected = annotate(twin, memopt=False)
    except TraceError as err:
        with pytest.raises(TraceError, match=re.escape(str(err))):
            annotate(raw, memopt=False)
    else:
        assert annotate(raw, memopt=False) == expected
    assert len(walks) == 3


def test_a_changed_trace_answers_its_own_footprint():
    raw = streaming_trace(stages=3)
    annotate(raw, memopt=True)
    raw.add_tensor(TensorSpec("late", 1 << 30, persistent=True))
    raw.events.insert(0, Alloc("late"))
    peak = raw.peak_live_bytes()
    assert peak == KernelTrace(raw.tensors, raw.events, raw.name).peak_live_bytes()
    assert peak > raw.prepared.footprint


def test_mutating_a_returned_trace_does_not_reach_the_next_caller(walks):
    raw = filo_stack_trace(depth=3)
    first = annotate(raw, memopt=True)
    pristine = list(first.events)
    first.events.clear()
    first.tensors.clear()
    first.name = "scribbled"
    second = annotate(raw, memopt=True)
    assert second.events == pristine
    assert second.tensors == raw.tensors
    assert second.name == f"{raw.name}:MA"
    assert len(walks) == 1


def test_both_memopt_variants_share_one_set_of_archive_objects():
    raw = filo_stack_trace(depth=4)
    retired = annotate(raw, memopt=True).events
    deferred = annotate(raw, memopt=False).events
    archives = [e for e in retired if isinstance(e, Archive)]
    assert archives
    assert [id(e) for e in archives] == [
        id(e) for e in deferred if isinstance(e, Archive)
    ]


def test_the_memo_keeps_at_most_two_annotations(walks):
    raw = filo_stack_trace(depth=3)
    for memopt, archive_hints, lookahead in OPTIONS:
        annotate(raw, memopt=memopt, archive_hints=archive_hints, lookahead=lookahead)
        assert len(raw.prepared.annotated) <= KEPT_ANNOTATIONS == 2
    assert len(walks) == len(OPTIONS)
    annotate(raw, memopt=False, archive_hints=False, lookahead=3)  # the newest
    assert len(walks) == len(OPTIONS)


def test_a_pickled_raw_trace_carries_no_memo():
    raw = filo_stack_trace(depth=3)
    annotate(raw, memopt=True)
    assert raw.prepared is not None
    loaded = pickle.loads(pickle.dumps(raw))
    assert loaded.prepared is None
    assert "prepared" not in vars(loaded)
    assert loaded == raw
    assert annotate(loaded, memopt=True) == annotate(raw, memopt=True)


def test_the_memo_is_never_compared():
    raw = filo_stack_trace(depth=3)
    twin = filo_stack_trace(depth=3)
    annotate(raw, memopt=True)
    assert raw == twin and twin.prepared is None
    assert "prepared" not in repr(raw)


def test_four_mode_runs_walk_a_trace_once_per_memopt(walks):
    """``run_trace_mode`` over one trace under four modes, two per
    ``memopt`` value: two walks, and every run builds from them."""
    from repro.experiments.common import ExperimentConfig, run_trace_mode

    raw = filo_stack_trace(depth=3)
    config = ExperimentConfig(scale=1024, iterations=1)
    for mode in ("2LM:0", "2LM:M", "CA:L", "CA:LM"):
        run_trace_mode(raw, mode, config)
    assert walks == [raw.name, raw.name]

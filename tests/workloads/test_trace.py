"""Kernel trace model: validation, metrics, scaling."""

import os
import subprocess
import sys

import pytest

from repro.errors import TraceError
from repro.workloads.trace import (
    Alloc,
    Free,
    IterEnd,
    Kernel,
    KernelTrace,
    TensorSpec,
)


def simple_trace():
    trace = KernelTrace(name="t")
    trace.add_tensor(TensorSpec("a", 100))
    trace.add_tensor(TensorSpec("b", 200))
    trace.events = [
        Alloc("a"),
        Alloc("b"),
        Kernel("k", reads=("a",), writes=("b",), flops=10.0),
        Free("a"),
        Free("b"),
        IterEnd(),
    ]
    return trace


def test_valid_trace_passes():
    simple_trace().validate()


def test_tensor_positive_size():
    with pytest.raises(TraceError):
        TensorSpec("x", 0)


def test_duplicate_tensor_rejected():
    trace = KernelTrace()
    trace.add_tensor(TensorSpec("a", 1))
    with pytest.raises(TraceError):
        trace.add_tensor(TensorSpec("a", 2))


def test_unknown_tensor_lookup():
    with pytest.raises(TraceError):
        KernelTrace().tensor("ghost")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t.events.insert(0, Alloc("a")), "double Alloc"),
        (lambda t: t.events.insert(2, Free("a")), "dead tensor"),
        (lambda t: t.events.__setitem__(0, Alloc("ghost")), "unknown tensor"),
        (lambda t: t.events.pop(0), "unallocated tensor"),
        (lambda t: t.events.pop(3), "never freed"),
    ],
)
def test_validation_catches_corruption(mutate, message):
    trace = simple_trace()
    mutate(trace)
    with pytest.raises(TraceError, match=message):
        trace.validate()


def test_never_freed_names_the_first_allocated_whatever_the_hash_seed():
    """Six tensors allocated and never freed: the message names the first in
    allocation order, so it is the same under every ``PYTHONHASHSEED``
    (the first of a ``set`` of names would depend on it)."""
    code = (
        "from repro.workloads.trace import Alloc, KernelTrace, TensorSpec\n"
        "trace = KernelTrace()\n"
        "for name in 'fcadbe':\n"
        "    trace.add_tensor(TensorSpec(name, 64))\n"
        "    trace.events.append(Alloc(name))\n"
        "try:\n"
        "    trace.validate()\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    messages = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        messages.add(out.stdout.strip())
    assert messages == {"non-persistent tensor 'f' never freed"}


def test_use_after_free_rejected():
    trace = simple_trace()
    trace.events.insert(5, Kernel("late", reads=("a",), writes=(), flops=1))
    with pytest.raises(TraceError, match="dead tensor"):
        trace.validate()


def test_persistent_tensor_cannot_be_freed():
    trace = KernelTrace()
    trace.add_tensor(TensorSpec("w", 64, persistent=True))
    trace.events = [Alloc("w"), Free("w"), IterEnd()]
    with pytest.raises(TraceError, match="persistent"):
        trace.validate()


def test_persistent_tensor_may_stay_live():
    trace = KernelTrace()
    trace.add_tensor(TensorSpec("w", 64, persistent=True))
    trace.events = [Alloc("w"), IterEnd()]
    trace.validate()


def test_peak_live_bytes():
    assert simple_trace().peak_live_bytes() == 300


def test_peak_live_with_staggered_lifetimes():
    trace = KernelTrace()
    for name, size in (("a", 100), ("b", 50), ("c", 70)):
        trace.add_tensor(TensorSpec(name, size))
    trace.events = [
        Alloc("a"),
        Alloc("b"),
        Free("a"),
        Alloc("c"),  # peak: b + c = 120 < a + b = 150
        Free("b"),
        Free("c"),
        IterEnd(),
    ]
    assert trace.peak_live_bytes() == 150


def test_flops_and_allocation_totals():
    trace = simple_trace()
    assert trace.total_kernel_flops() == 10.0


def test_scaled_divides_sizes_and_flops():
    scaled = simple_trace().scaled(2)
    assert scaled.tensors["b"].nbytes == 100
    assert next(scaled.kernels()).flops == 5.0
    scaled.validate()


def test_scaled_floors_at_64_bytes():
    trace = KernelTrace()
    trace.add_tensor(TensorSpec("tiny", 100))
    trace.events = [Alloc("tiny"), Free("tiny"), IterEnd()]
    assert trace.scaled(1000).tensors["tiny"].nbytes == 64


def test_scale_one_is_identity():
    trace = simple_trace()
    assert trace.scaled(1) is trace


def test_bad_scale_rejected():
    with pytest.raises(TraceError):
        simple_trace().scaled(0)


def test_with_events_shares_tensor_table():
    trace = simple_trace()
    sibling = trace.with_events(trace.events[:-1] + [IterEnd()], "alt")
    assert sibling.tensors == trace.tensors
    assert sibling.name.endswith("alt")

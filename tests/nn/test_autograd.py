"""Tape autograd over CachedArrays: matches plain numpy exactly."""

import numpy as np
import pytest

from repro.core.session import Session, SessionConfig
from repro.errors import KernelError
from repro.nn import ops
from repro.nn.autograd import Tape
from repro.policies.optimizing import OptimizingPolicy
from repro.units import KiB, MiB


@pytest.fixture
def session():
    s = Session(
        SessionConfig(dram=512 * KiB, nvram=32 * MiB, real=True),
        policy=OptimizingPolicy(local_alloc=True),
    )
    yield s
    s.close()


def test_linear_relu_matches_numpy(session):
    rng = np.random.default_rng(0)
    x_np = rng.random((8, 4)).astype(np.float32)
    w_np = rng.random((3, 4)).astype(np.float32)
    b_np = rng.random(3).astype(np.float32)
    labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])

    tape = Tape(session)
    x = tape.input(x_np)
    w = tape.parameter(w_np, "w")
    b = tape.parameter(b_np, "b")
    logits = tape.relu(tape.linear(x, w, b))
    loss = tape.softmax_cross_entropy(logits, labels)

    hidden = ops.relu_forward(ops.linear_forward(x_np, w_np, b_np))
    expected_loss, grad_logits = ops.softmax_cross_entropy(hidden, labels)
    assert loss == pytest.approx(expected_loss, rel=1e-5)

    tape.backward()
    grad_hidden = ops.relu_backward(grad_logits, hidden)
    _, expected_gw, expected_gb = ops.linear_backward(grad_hidden, x_np, w_np)
    np.testing.assert_allclose(w.grad.read(), expected_gw, rtol=1e-4, atol=1e-6)
    np.testing.assert_allclose(b.grad.read(), expected_gb, rtol=1e-4, atol=1e-6)


def test_conv_pipeline_runs_and_produces_grads(session):
    rng = np.random.default_rng(1)
    tape = Tape(session)
    x = tape.input(rng.random((2, 1, 6, 6)).astype(np.float32))
    w = tape.parameter(rng.normal(size=(2, 1, 3, 3)).astype(np.float32), "w")
    b = tape.parameter(np.zeros(2, dtype=np.float32), "b")
    fw = tape.parameter(rng.normal(size=(3, 2 * 3 * 3)).astype(np.float32), "fw")
    fb = tape.parameter(np.zeros(3, dtype=np.float32), "fb")
    y = tape.maxpool2d(tape.relu(tape.conv2d(x, w, b)), 2)
    logits = tape.linear(tape.flatten(y), fw, fb)
    tape.softmax_cross_entropy(logits, np.array([0, 1]))
    tape.backward()
    assert w.grad is not None and float(np.abs(w.grad.read()).sum()) > 0
    assert fw.grad is not None


def test_backward_retires_activations(session):
    tape = Tape(session)
    x = tape.input(np.ones((4, 4), dtype=np.float32))
    w = tape.parameter(np.eye(4, dtype=np.float32), "w")
    b = tape.parameter(np.zeros(4, dtype=np.float32), "b")
    out = tape.relu(tape.linear(x, w, b))
    tape.softmax_cross_entropy(out, np.zeros(4, dtype=np.int64))
    tape.backward()
    assert out.array.retired
    assert not w.array.retired  # parameters survive
    x.retire()


def test_backward_without_loss_rejected(session):
    tape = Tape(session)
    with pytest.raises(KernelError):
        tape.backward()


def test_discard_retires_without_backward(session):
    tape = Tape(session)
    x = tape.input(np.ones((2, 2), dtype=np.float32))
    w = tape.parameter(np.eye(2, dtype=np.float32), "w")
    b = tape.parameter(np.zeros(2, dtype=np.float32), "b")
    out = tape.linear(x, w, b)
    tape.discard()
    assert out.array.retired
    assert w.grad is None


def test_sgd_step_updates_and_zeroes(session):
    tape = Tape(session)
    w = tape.parameter(np.ones((2, 2), dtype=np.float32), "w")
    w.ensure_grad().write(np.full((2, 2), 2.0, dtype=np.float32))
    tape.sgd_step([w], lr=0.5)
    np.testing.assert_allclose(w.array.read(), 0.0)
    np.testing.assert_allclose(w.grad.read(), 0.0)


def test_grad_accumulates_across_uses(session):
    """A parameter read by two ops receives the sum of both gradients."""
    tape = Tape(session)
    x = tape.input(np.ones((2, 3), dtype=np.float32))
    w = tape.parameter(np.ones((3, 3), dtype=np.float32), "w")
    b = tape.parameter(np.zeros(3, dtype=np.float32), "b")
    h1 = tape.linear(x, w, b)
    h2 = tape.linear(h1, w, b)  # w used twice
    tape.softmax_cross_entropy(h2, np.array([0, 1]))
    tape.backward()
    assert float(np.abs(w.grad.read()).sum()) > 0

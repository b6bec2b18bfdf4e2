"""Real-compute training loops on CachedArrays sessions.

Small, honest models (an MLP and a LeNet-style CNN) trained with the tape
autograd on real-backed devices. Used by the examples and by the end-to-end
integration tests, which assert both that the loss decreases *and* that the
policy actually moved data between devices while it happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.session import Session
from repro.errors import ConfigurationError
from repro.nn.autograd import Tape, Var

__all__ = ["TrainResult", "make_blobs", "train_mlp", "train_cnn"]


@dataclass
class TrainResult:
    """Loss history plus the session telemetry gathered during training."""

    losses: list[float] = field(default_factory=list)
    final_accuracy: float = 0.0
    traffic: dict[str, tuple[int, int]] = field(default_factory=dict)
    evictions: int = 0


def make_blobs(
    samples: int,
    features: int,
    classes: int,
    *,
    seed: int = 0,
    spread: float = 3.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Separable Gaussian blobs — a quick synthetic classification set."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=spread, size=(classes, features))
    labels = rng.integers(0, classes, size=samples)
    data = centers[labels] + rng.normal(size=(samples, features))
    return data.astype(np.float32), labels.astype(np.int64)


def make_images(
    samples: int,
    channels: int,
    size: int,
    classes: int,
    *,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Class-dependent striped images for tiny-CNN sanity training."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=samples)
    data = rng.normal(scale=0.5, size=(samples, channels, size, size))
    for i, label in enumerate(labels):
        data[i, :, :, label % size] += 2.0  # class-indexed bright column
    return data.astype(np.float32), labels.astype(np.int64)


def _collect(session: Session, result: TrainResult) -> None:
    result.traffic = {
        name: (snap.read_bytes, snap.write_bytes)
        for name, snap in session.traffic().items()
    }
    stats = getattr(session.policy, "stats", None)
    if stats is not None:
        result.evictions = stats.evictions


def train_mlp(
    session: Session,
    *,
    samples: int = 256,
    features: int = 32,
    hidden: int = 64,
    classes: int = 4,
    steps: int = 30,
    lr: float = 0.1,
    seed: int = 0,
) -> TrainResult:
    """Train a two-layer MLP on Gaussian blobs; full-batch SGD."""
    if not session.is_real:
        raise ConfigurationError("real-compute training needs a real-backed session")
    rng = np.random.default_rng(seed)
    data, labels = make_blobs(samples, features, classes, seed=seed)
    w1 = rng.normal(scale=0.1, size=(hidden, features))
    b1 = np.zeros(hidden)
    w2 = rng.normal(scale=0.1, size=(classes, hidden))
    b2 = np.zeros(classes)

    tape = Tape(session)
    params = [
        tape.parameter(w1, "w1"),
        tape.parameter(b1, "b1"),
        tape.parameter(w2, "w2"),
        tape.parameter(b2, "b2"),
    ]
    result = TrainResult()
    for _ in range(steps):
        x = tape.input(data, "input.batch")
        h = tape.relu(tape.linear(x, params[0], params[1]))
        logits = tape.linear(h, params[2], params[3])
        final_logits = logits.array.read()
        loss = tape.softmax_cross_entropy(logits, labels)
        result.losses.append(loss)
        tape.backward()
        tape.sgd_step(params, lr)
        x.retire()
        result.final_accuracy = float(
            (final_logits.argmax(axis=1) == labels).mean()
        )
    _collect(session, result)
    return result


def train_cnn(
    session: Session,
    *,
    samples: int = 64,
    size: int = 8,
    classes: int = 4,
    steps: int = 20,
    lr: float = 0.05,
    seed: int = 0,
) -> TrainResult:
    """Train a tiny conv net (conv-relu-pool-fc) on striped images."""
    if not session.is_real:
        raise ConfigurationError("real-compute training needs a real-backed session")
    rng = np.random.default_rng(seed)
    data, labels = make_images(samples, 1, size, classes, seed=seed)
    conv_w = rng.normal(scale=0.2, size=(8, 1, 3, 3))
    conv_b = np.zeros(8)
    fc_in = 8 * (size // 2) * (size // 2)
    fc_w = rng.normal(scale=0.1, size=(classes, fc_in))
    fc_b = np.zeros(classes)

    tape = Tape(session)
    params = [
        tape.parameter(conv_w, "conv.w"),
        tape.parameter(conv_b, "conv.b"),
        tape.parameter(fc_w, "fc.w"),
        tape.parameter(fc_b, "fc.b"),
    ]
    result = TrainResult()
    for _ in range(steps):
        x = tape.input(data, "input.batch")
        y = tape.relu(tape.conv2d(x, params[0], params[1]))
        y = tape.maxpool2d(y, 2)
        y = tape.flatten(y)
        logits = tape.linear(y, params[2], params[3])
        final_logits = logits.array.read()
        loss = tape.softmax_cross_entropy(logits, labels)
        result.losses.append(loss)
        tape.backward()
        tape.sgd_step(params, lr)
        x.retire()
        result.final_accuracy = float(
            (final_logits.argmax(axis=1) == labels).mean()
        )
    _collect(session, result)
    return result

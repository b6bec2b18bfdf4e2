"""End-to-end real-compute training on tiered memory."""

import numpy as np
import pytest

from repro.core.session import Session, SessionConfig
from repro.errors import ConfigurationError
from repro.nn.training import make_blobs, make_images, train_cnn, train_mlp
from repro.policies.optimizing import OptimizingPolicy
from repro.units import KiB, MiB


def session_with(dram):
    return Session(
        SessionConfig(dram=dram, nvram=64 * MiB, real=True),
        policy=OptimizingPolicy(local_alloc=True),
    )


def test_requires_real_session(virtual_session):
    with pytest.raises(ConfigurationError):
        train_mlp(virtual_session)


def test_mlp_converges_with_plenty_of_dram():
    with session_with(8 * MiB) as session:
        result = train_mlp(session, steps=25, seed=0)
    assert result.losses[-1] < result.losses[0]
    assert result.losses[-1] < 0.2
    assert result.final_accuracy > 0.9


def test_mlp_converges_under_memory_pressure():
    """Same training, but DRAM far too small: evictions must not break it."""
    with session_with(256 * KiB) as session:
        result = train_mlp(session, steps=25, seed=0)
    assert result.losses[-1] < result.losses[0]
    assert result.final_accuracy > 0.9
    assert result.evictions > 0  # tiering actually happened


def test_training_identical_regardless_of_dram_budget():
    """Tiering is transparent: loss trajectories match bit-for-bit."""
    with session_with(8 * MiB) as roomy:
        losses_roomy = train_mlp(roomy, steps=10, seed=3).losses
    with session_with(256 * KiB) as tight:
        losses_tight = train_mlp(tight, steps=10, seed=3).losses
    np.testing.assert_allclose(losses_roomy, losses_tight, rtol=1e-6)


def test_cnn_converges_under_pressure():
    with session_with(128 * KiB) as session:
        result = train_cnn(session, steps=15, seed=1)
    assert result.losses[-1] < result.losses[0]
    assert result.evictions > 0
    assert result.final_accuracy > 0.6


def test_traffic_reported():
    with session_with(256 * KiB) as session:
        result = train_mlp(session, steps=5)
    assert set(result.traffic) == {"DRAM", "NVRAM"}
    nvram_read, nvram_written = result.traffic["NVRAM"]
    assert nvram_read + nvram_written > 0  # spill traffic existed


def test_make_blobs_separable():
    data, labels = make_blobs(200, 16, 3, seed=0)
    assert data.shape == (200, 16)
    assert set(np.unique(labels)) <= {0, 1, 2}


def test_make_images_shapes():
    data, labels = make_images(10, 2, 8, 4, seed=0)
    assert data.shape == (10, 2, 8, 8)
    assert labels.shape == (10,)


def test_blobs_deterministic_per_seed():
    a, _ = make_blobs(10, 4, 2, seed=5)
    b, _ = make_blobs(10, 4, 2, seed=5)
    np.testing.assert_array_equal(a, b)

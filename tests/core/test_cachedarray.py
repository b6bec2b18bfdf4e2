"""CachedArray: user-facing handle semantics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ObjectStateError


def test_shape_dtype_metadata(real_session):
    array = real_session.empty((4, 8), np.float64, name="x")
    assert array.shape == (4, 8)
    assert array.dtype == np.float64
    assert array.size == 32
    assert array.nbytes == 256
    assert array.ndim == 2


def test_size_mismatch_rejected(real_session):
    from repro.core.cachedarray import CachedArray

    obj = real_session.manager.new_object(64, "bad")
    real_session.policy.place(obj)
    with pytest.raises(ConfigurationError):
        CachedArray(real_session, obj, (4, 8), np.float32)  # needs 128 B


def test_write_read_roundtrip(real_session):
    array = real_session.empty((16, 16), name="x")
    data = np.random.default_rng(1).random((16, 16)).astype(np.float32)
    array.write(data)
    assert np.array_equal(array.read(), data)


def test_write_scalar_broadcast(real_session):
    array = real_session.empty((8,), name="x")
    array.write(3.0)
    assert (array.read() == 3.0).all()


def test_read_returns_copy(real_session):
    array = real_session.zeros((4,), name="x")
    out = array.read()
    out[:] = 9
    assert (array.read() == 0).all()


def test_view_is_live(real_session):
    array = real_session.zeros((4,), name="x")
    with real_session.kernel(writes=[array]) as (_, (view,)):
        view[0] = 5
    assert array.read()[0] == 5


def test_asarray_protocol(real_session):
    array = real_session.zeros((3,), name="x")
    array.write(np.array([1, 2, 3], dtype=np.float32))
    assert np.asarray(array).tolist() == [1, 2, 3]
    assert np.asarray(array, dtype=np.int64).dtype == np.int64


def test_device_tracks_primary(real_session):
    array = real_session.zeros((4,), name="x")
    assert array.device in ("DRAM", "NVRAM")


def test_retire_makes_array_unusable(real_session):
    array = real_session.zeros((4,), name="x")
    array.retire()
    assert array.retired
    with pytest.raises(ObjectStateError):
        array.read()


def test_hint_methods_chain(real_session):
    array = real_session.zeros((4,), name="x")
    assert array.will_use() is array
    assert array.will_read() is array
    assert array.will_write() is array
    assert array.archive() is array


def test_from_numpy(real_session):
    data = np.arange(12, dtype=np.int32).reshape(3, 4)
    array = real_session.from_numpy(data, name="x")
    assert array.dtype == np.int32
    assert np.array_equal(array.read(), data)


def test_from_numpy_requires_real(virtual_session):
    with pytest.raises(ConfigurationError):
        virtual_session.from_numpy(np.zeros(4, dtype=np.float32))


def test_virtual_array_has_no_views(virtual_session):
    array = virtual_session.empty((4,), name="x")
    with pytest.raises(ConfigurationError):
        array.view()


def test_repr(real_session):
    array = real_session.zeros((2, 2), name="mat")
    text = repr(array)
    assert "mat" in text and "(2, 2)" in text


@pytest.mark.parametrize("hint", ["will_read", "will_write"])
def test_a_hint_method_attributes_its_movement_like_a_kernel_hint(hint):
    """``array.will_read()`` (or ``will_write()``) takes the kernel's hint
    path: one ``hint`` event, and every event the move causes rooted at it —
    the same records as the hint a kernel issues for that operand."""
    from repro.core.session import Session, SessionConfig, issue_hints
    from repro.policies.optimizing import OptimizingPolicy
    from repro.units import KiB, MiB

    def records(deliver):
        session = Session(
            SessionConfig(dram=64 * KiB, nvram=1 * MiB, tracing=True),
            policy=OptimizingPolicy(local_alloc=True, prefetch=True),
        )
        arrays = [session.empty(4 * KiB, name=f"a{i}") for i in range(6)]
        assert arrays[0].device == "NVRAM"  # pushed out by a4 and a5
        session.tracer.clear()
        deliver(session, arrays[0])
        assert arrays[0].device == "DRAM"
        events = [event.to_json() for event in session.tracer.events]
        session.close()
        return events

    def by_method(session, array):
        getattr(array, hint)()

    def by_kernel(session, array):
        operands = ([array.obj], []) if hint == "will_read" else ([], [array.obj])
        issue_hints(session.policy, session.tracer, *operands)

    events = records(by_method)
    assert events == records(by_kernel)
    first, *moved = events
    assert (first["kind"], first["hint"], first["subject"]) == ("hint", hint, "a0")
    assert {event["kind"] for event in moved} >= {"evict", "prefetch", "copy_start"}
    assert all(event["root"] == f"hint:{hint}:a0" for event in moved)

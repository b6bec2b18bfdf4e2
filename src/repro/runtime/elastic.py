"""Elastic operations: deterministic snapshot/restore of a running system.

A run paused at a kernel boundary can be serialized — heaps and free lists,
the object table with residency and dirty bits, the virtual clock with its
per-category busy accounting, in-flight copy-engine records, per-tenant
quotas, and the executor's position in the trace — and restored in a fresh
process, where it continues to a **bit-identical** final result (the golden
virtual-time digests pin this, in both virtual and real-backed modes).

Mechanics
---------

The snapshot is a pickle of the :class:`~repro.experiments.common.PreparedRun`
graph: pickle preserves the shared references that make the runtime work
(one clock shared by session, adapter, and copy engine; one heap referenced
by every region on it), and the few unpicklable members have
``__getstate__`` hooks that drop them (the copy engine's thread pool is
rebuilt lazily; the clock's bound per-stream busy map only exists mid-
schedule, and snapshots are only taken between scheduler runs). Two pieces
of *process-global* state ride alongside the object graph:

* **id watermarks** — object/region ids come from module-level counters, so
  a fresh process would restart them at zero and collide with ids recorded
  in the snapshot. :func:`load_snapshot` raises the counters to the saved
  watermarks (``restore_id_floor``) before the run continues.
* **format envelope** — a magic/version header so a stale or foreign file
  fails loudly instead of unpickling garbage.

Pausing is cooperative: :class:`~repro.runtime.executor.Executor` counts
kernels and, at ``pause_after``, parks its mid-iteration partials in a
picklable cursor and ends the stream. Nothing else in the step sequence
changes, so the resumed run replays the exact clock arithmetic of an
uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass

from repro.core.object import id_watermarks, restore_id_floor
from repro.errors import ConfigurationError
from repro.experiments.common import (
    ExperimentConfig,
    ModeResult,
    PreparedRun,
    model_trace,
    prepare_trace_mode,
)
from repro.telemetry import trace as tracing

__all__ = [
    "RuntimeSnapshot",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "checkpoint_model_mode",
    "checkpoint_trace_mode",
    "digest_mode_result",
    "load_snapshot",
    "resume_snapshot",
    "save_snapshot",
]

SNAPSHOT_FORMAT = "repro-runtime-snapshot"
# Counts pickled layouts: bump it whenever a class in the snapshot's object
# graph gains, loses or renames a field (docs/robustness.md has the history).
SNAPSHOT_VERSION = 15


@dataclass
class RuntimeSnapshot:
    """A paused run plus the process-global state it needs to continue.

    ``kind`` names the payload shape: ``"mode-run"`` payloads are
    :class:`PreparedRun` objects (experiment runs paused mid-trace);
    ``"chaos"`` payloads are the chaos harness's scripted-workload state
    (see :mod:`repro.faults.chaos`). The envelope machinery is shared.
    """

    kind: str
    payload: object
    watermarks: dict[str, int]
    virtual_time: float
    kernels_done: int
    label: str = ""


# -- envelope ---------------------------------------------------------------


def save_snapshot(snapshot: RuntimeSnapshot, path: str) -> str:
    """Write ``snapshot`` to ``path``; returns the path."""
    envelope = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "snapshot": snapshot,
    }
    with open(path, "wb") as fh:
        pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return path


def load_snapshot(path: str) -> RuntimeSnapshot:
    """Read a snapshot and restore the process-global id floors.

    Raising the id counters happens here — not in :func:`resume_snapshot` —
    because *any* use of the restored object graph (even inspection) must
    not mint ids that collide with ones recorded in the snapshot.
    """
    with open(path, "rb") as fh:
        try:
            envelope = pickle.load(fh)
        except (
            pickle.UnpicklingError, AttributeError, EOFError, ImportError,
            IndexError,
        ) as err:
            # The envelope is one pickle, so a snapshot written by a build
            # with different class layouts (a renamed slot, a moved class)
            # can fail here, before its version field is readable.
            raise ConfigurationError(
                f"{path!r} is not a runtime snapshot this build can read: {err}"
            ) from None
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != SNAPSHOT_FORMAT
    ):
        raise ConfigurationError(f"{path!r} is not a runtime snapshot")
    version = envelope.get("version")
    if version != SNAPSHOT_VERSION:
        raise ConfigurationError(
            f"snapshot version {version!r} unsupported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    snapshot = envelope["snapshot"]
    restore_id_floor(snapshot.watermarks)
    return snapshot


# -- checkpointable experiment runs ----------------------------------------


def _emit_elastic(prepared: PreparedRun, kind: str, label: str) -> None:
    prepared.adapter.tracer.checkpoint(
        kind, label, prepared.executor.kernels_done
    )


def _snapshot_of(prepared: PreparedRun) -> RuntimeSnapshot:
    label = f"{prepared.model}@k{prepared.executor.kernels_done}"
    _emit_elastic(prepared, tracing.SNAPSHOT, label)
    return RuntimeSnapshot(
        kind="mode-run",
        payload=prepared,
        watermarks=id_watermarks(),
        virtual_time=prepared.adapter.clock.now,
        kernels_done=prepared.executor.kernels_done,
        label=label,
    )


def checkpoint_trace_mode(
    trace,
    mode_name,
    config: ExperimentConfig,
    *,
    pause_after: int,
    model_label: str = "",
) -> RuntimeSnapshot | ModeResult:
    """Run a trace, pausing after ``pause_after`` kernels.

    Returns a :class:`RuntimeSnapshot` when the pause fired, or the
    finished :class:`ModeResult` when the run completed first (fewer
    kernels than ``pause_after``).
    """
    if pause_after < 1:
        raise ConfigurationError(
            f"pause_after must be >= 1, got {pause_after}"
        )
    prepared = prepare_trace_mode(
        trace, mode_name, config, model_label=model_label
    )
    prepared.executor.pause_after = pause_after
    run = prepared.execute()
    if run is not None:
        return prepared.finish(run)
    return _snapshot_of(prepared)


def checkpoint_model_mode(
    model_key: str,
    mode_name: str,
    config: ExperimentConfig,
    *,
    pause_after: int,
) -> RuntimeSnapshot | ModeResult:
    """Model-registry convenience wrapper over :func:`checkpoint_trace_mode`."""
    return checkpoint_trace_mode(
        model_trace(model_key, config), mode_name, config,
        pause_after=pause_after, model_label=model_key,
    )


def resume_snapshot(
    snapshot: RuntimeSnapshot, *, pause_after: int | None = None
) -> RuntimeSnapshot | ModeResult:
    """Continue a ``mode-run`` snapshot where it paused.

    ``pause_after`` (an absolute kernel count, like the one that produced
    the snapshot) re-pauses the run, allowing chained checkpoints; the
    default runs to completion and returns the :class:`ModeResult`.
    """
    if snapshot.kind != "mode-run":
        raise ConfigurationError(
            f"cannot resume snapshot of kind {snapshot.kind!r} here"
        )
    prepared = snapshot.payload
    if pause_after is not None and pause_after <= snapshot.kernels_done:
        raise ConfigurationError(
            f"pause_after={pause_after} is not past the snapshot's "
            f"{snapshot.kernels_done} completed kernels"
        )
    _emit_elastic(prepared, tracing.RESTORE, snapshot.label)
    prepared.executor.pause_after = pause_after
    run = prepared.execute()
    if run is None:
        return _snapshot_of(prepared)
    return prepared.finish(run)


# -- digests ----------------------------------------------------------------


def _hex(value: float) -> str:
    return float(value).hex()


def _iteration_dump(it) -> dict:
    return {
        "seconds": _hex(it.seconds),
        "start": _hex(it.start_time),
        "end": _hex(it.end_time),
        "compute": _hex(it.compute_seconds),
        "kernel_memory": _hex(it.kernel_memory_seconds),
        "movement": _hex(it.movement_seconds),
        "gc_seconds": _hex(it.gc_seconds),
        "gc_collections": it.gc_collections,
        "traffic": {
            device: [snap.read_bytes, snap.write_bytes]
            for device, snap in sorted(it.traffic.items())
        },
        "cache": (
            None
            if it.cache is None
            else [it.cache.hits, it.cache.clean_misses, it.cache.dirty_misses]
        ),
        "peak_occupancy": dict(sorted(it.peak_occupancy.items())),
        "policy_stats": dict(sorted(it.policy_stats.items())),
    }


def digest_mode_result(result: ModeResult) -> str:
    """SHA-256 over full-precision (``float.hex``) dumps of one mode run.

    The same shape the golden-digest tests hash (per-iteration metrics plus
    every timeline sample), scoped to a single :class:`ModeResult` — the
    unit the snapshot round-trip contract is stated over: an interrupted-
    and-restored run must produce the same digest as an uninterrupted one.
    """
    run = result.run
    dump = {
        "footprint": result.footprint_bytes,
        "iterations": [_iteration_dump(it) for it in run.iterations],
        "timelines": {
            name: [
                [_hex(t), _hex(v), label]
                for t, v, label in timeline.to_dict()["samples"]
            ]
            for name, timeline in sorted(run.occupancy_timeline.items())
        },
    }
    blob = json.dumps(dump, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()

"""Golden virtual-time digests: the hot-path work's bit-identity contract.

The tentpole optimizations (size-class free lists, slotted events, cached
bandwidth curves, the direct-mapped cache fast path) must never change a
simulated result. These tests pin a SHA-256 over *full-precision* dumps
(``float.hex()`` — no rounding, any ULP drift trips) of every per-iteration
metric and every Timeline sample for a small fig2/fig5 run.

The constants were recorded after verifying, at scales 256 and 1024, that
the optimized substrate reproduces the pre-optimization outputs exactly.
If a future change trips one of these, it altered placement or virtual-time
arithmetic: either fix it, or — for an *intentional* semantic change —
re-record the digest and say so in the commit.
"""

import hashlib
import json

from repro.experiments import fig2_runtime, fig5_traffic
from repro.experiments.common import ExperimentConfig

SCALE = 2048  # divides workload/device sizes: small and fast, still covers
ITERATIONS = 2  # warmup + steady state (the iteration the paper reports)

GOLDEN_FIG2 = "4654ad74b7eb8fcda391b7cdbfed7a413c688a8ba11122225a8cd282d3b0ebf3"
GOLDEN_FIG5 = "ab11c58ffa5950e2c03766516ba300c526194f482c4a35ec5c6982ac16844cc7"


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


def _run_dump(run) -> dict:
    return {
        "iterations": [_iteration_dump(it) for it in run.iterations],
        "timelines": {
            name: [
                [_hex(t), _hex(v), label]
                for t, v, label in timeline.to_dict()["samples"]
            ]
            for name, timeline in sorted(run.occupancy_timeline.items())
        },
    }


def _digest(result) -> str:
    dump = {
        model: {
            mode: {
                "footprint": mode_result.footprint_bytes,
                "run": _run_dump(mode_result.run),
            }
            for mode, mode_result in by_mode.items()
        }
        for model, by_mode in result.items()
    }
    blob = json.dumps(dump, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_fig2_virtual_time_digest():
    result = fig2_runtime.run(
        ExperimentConfig(scale=SCALE, iterations=ITERATIONS),
        models=("resnet200-large",),
    )
    assert _digest(result) == GOLDEN_FIG2


def test_fig5_virtual_time_digest():
    result = fig5_traffic.run(
        ExperimentConfig(scale=SCALE, iterations=ITERATIONS),
        models=("vgg416-large",),
    )
    assert _digest(result) == GOLDEN_FIG5

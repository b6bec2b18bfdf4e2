"""The five workloads: inputs built from the seed, cells, digests, invariants.

A workload builds its inputs (``build`` — what ``setup_s`` times), splits a
pass into *cells* (one timed call into the program each), and turns each
cell's result into an *operation*: one (net, mode) run or one serving load
point, with an exact digest of its simulated result, its simulated seconds at
paper magnitude, and the model's own counters. The program only
ever sees generated inputs — trace objects and config dataclasses.

Wrapped functions are reached through their module (``serving.run_serving``,
not a by-name import) so the traced run's wrappers are what gets called.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.experiments import common, serving
from repro.experiments.common import ExperimentConfig
from repro.nn.models import MODEL_REGISTRY
from repro.telemetry.monitor import MonitorConfig
from repro.workloads import signatures

__all__ = ["WORKLOADS", "Cell", "OpResult", "combine_tallies", "digest_of"]

NETS = ("densenet264-large", "resnet200-large", "vgg416-large")
SMOKE_NETS = ("resnet200-large",)
CA_MODES = ("CA:0", "CA:L", "CA:LM", "CA:LMP")
FULL_SCALE, SMOKE_SCALE = 256, 1024

# (faster mode, slower mode, net prefix) — the paper's Figure 2 orderings.
LOCAL_BEATS_NONE = (("CA:LM", "CA:0", ""),)
PREFETCH_SIGNS = (
    ("CA:LM", "CA:LMP", "densenet"),
    ("CA:LM", "CA:LMP", "resnet"),
    ("CA:LMP", "CA:LM", "vgg"),
)
MEMOPT_HELPS_2LM = (("2LM:M", "2LM:0", ""),)


@dataclass
class OpResult:
    """One operation's exact simulated outcome."""

    digest: str
    sim_seconds: float  # paper magnitude
    events: int
    tallies: dict[str, float] = field(default_factory=dict)


@dataclass
class Cell:
    """One timed call into the program — one operation — and how to read
    its result."""

    key: str
    run: Callable[[], Any]
    summarise: Callable[[Any], OpResult]


def _hex(value: float) -> str:
    return float(value).hex()


def digest_of(parts: list) -> str:
    """sha256 over a nested list of ints, strings and ``float.hex`` strings."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# Tallies that combine by maximum; every other tally sums.
_MAX_TALLIES = frozenset({"p99_slowdown"})


def combine_tallies(ops: dict[str, OpResult]) -> dict[str, float]:
    total: dict[str, float] = {}
    for op in ops.values():
        for key, value in op.tallies.items():
            if key in _MAX_TALLIES:
                total[key] = max(total.get(key, value), value)
            else:
                total[key] = total.get(key, 0.0) + value
    return total


# -- trace workloads: (net, mode) cells through run_trace_mode ------------------


def _summarise_mode(result: common.ModeResult, events: int) -> OpResult:
    parts = []
    for it in result.run.iterations:
        cache = it.cache
        parts.append([
            it.index, _hex(it.seconds), _hex(it.compute_seconds),
            _hex(it.kernel_memory_seconds), _hex(it.movement_seconds),
            _hex(it.gc_seconds), it.gc_collections,
            sorted((d, s.read_bytes, s.write_bytes) for d, s in it.traffic.items()),
            None if cache is None
            else (cache.hits, cache.clean_misses, cache.dirty_misses),
            sorted(it.peak_occupancy.items()), sorted(it.policy_stats.items()),
        ])
    steady = result.iteration
    scale = result.config.scale
    tallies = {
        "compute_s": steady.compute_seconds * scale,
        "kernel_memory_s": steady.kernel_memory_seconds * scale,
        "movement_s": steady.movement_seconds * scale,
        "gc_s": steady.gc_seconds * scale,
        "events_retained": float(len(result.run.trace)),
    }
    for device in steady.traffic:
        read, write = result.traffic_gb(device)
        tallies[f"{device.lower()}_read_gb"] = read
        tallies[f"{device.lower()}_write_gb"] = write
    for key in ("evictions", "prefetches", "elided_writebacks",
                "forced_eviction_rounds", "placed_fast", "placed_slow"):
        tallies[key] = float(steady.policy_stats.get(key, 0))
    if steady.cache is not None:
        tallies["cache_hits"] = float(steady.cache.hits)
        tallies["cache_dirty_misses"] = float(steady.cache.dirty_misses)
        tallies["cache_accesses"] = float(steady.cache.accesses)
    return OpResult(digest_of(parts), steady.seconds * scale, events, tallies)


def _cnn_traces(seed: int, scale: int, smoke: bool) -> dict[str, Any]:
    """The three large CNNs' training traces; seed-free."""
    return {
        net: MODEL_REGISTRY[net].builder().training_trace().scaled(scale)
        for net in (SMOKE_NETS if smoke else NETS)
    }


def _tiny_traces(seed: int, scale: int, smoke: bool) -> dict[str, Any]:
    trace = signatures.tiny_objects_trace(waves=4 if smoke else 40, seed=seed)
    return {"tiny-objects": trace.scaled(scale)}


@dataclass(frozen=True)
class TraceWorkload:
    name: str
    why: str
    modes: tuple[str, ...]
    orderings: tuple[tuple[str, str, str], ...]
    traces: Callable[[int, int, bool], dict[str, Any]] = _cnn_traces
    seeded: bool = False
    observed: bool = False  # full tracing plus the runtime monitor

    def config(self, smoke: bool) -> ExperimentConfig:
        scale = SMOKE_SCALE if smoke else FULL_SCALE
        if self.observed:
            return ExperimentConfig(
                scale=scale, iterations=2, tracing=True, monitor=True,
                monitor_config=MonitorConfig(rules=()),
            )
        return ExperimentConfig(scale=scale, iterations=2)

    def build(self, seed: int, smoke: bool) -> dict[str, Any]:
        return self.traces(seed, self.config(smoke).scale, smoke)

    def cells(self, inputs: dict[str, Any], smoke: bool) -> list[Cell]:
        config = self.config(smoke)
        cells = []
        for label, trace in inputs.items():
            events = len(trace.events) * config.iterations
            for mode in self.modes:
                cells.append(Cell(
                    key=f"{label}|{mode}",
                    run=lambda t=trace, m=mode, n=label: common.run_trace_mode(
                        t, m, config, model_label=n
                    ),
                    summarise=lambda r, e=events: _summarise_mode(r, e),
                ))
        return cells

    def check(self, ops: dict[str, OpResult]) -> list[tuple[str, str]]:
        problems = []
        for faster, slower, prefix in self.orderings:
            for key, op in ops.items():
                label, _, mode = key.partition("|")
                other = ops.get(f"{label}|{slower}")
                if mode != faster or other is None or not label.startswith(prefix):
                    continue
                if not op.sim_seconds < other.sim_seconds:
                    problems.append((
                        key,
                        f"{faster} {op.sim_seconds:.2f} s is not faster than "
                        f"{slower} {other.sim_seconds:.2f} s on {label}",
                    ))
        return problems


# -- serve-churn: one run_serving sweep, one operation per load point ------------


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    why: str
    seeded: bool = True

    def build(self, seed: int, smoke: bool) -> dict[str, Any]:
        config = ExperimentConfig(scale=SMOKE_SCALE if smoke else FULL_SCALE)
        sweep = serving.ServingConfig(
            requests=60 if smoke else 1500,
            seed=seed,
            rate_multipliers=serving.CHECK_MULTIPLIERS,
        )
        sweep.validate()
        # The per-class request traces are what the sweep replays; building
        # them here is the generator cost run_serving pays on entry.
        for cls in serving.REQUEST_CLASSES:
            serving.request_trace(cls).scaled(config.scale).peak_live_bytes()
        return {"config": config, "serving": sweep}

    def cells(self, inputs: dict[str, Any], smoke: bool) -> list[Cell]:
        # One call per load point (each re-measures the three solo
        # baselines, a few ms): points are independent runs over the same
        # seeded arrivals, and a sub-second cell lets the calibration slices
        # between cells follow the host's speed.
        config, sweep = inputs["config"], inputs["serving"]
        cells = []
        for multiplier in sweep.rate_multipliers:
            point = replace(sweep, rate_multipliers=(multiplier,))
            cells.append(Cell(
                key=f"load-{multiplier}x",
                run=lambda p=point: serving.run_serving(config, p),
                summarise=lambda result: _summarise_point(result, result.points[0]),
            ))
        return cells

    def check(self, ops: dict[str, OpResult]) -> list[tuple[str, str]]:
        problems = []
        for key, op in ops.items():
            t = op.tallies
            if t["outcomes"] != t["arrivals"]:
                problems.append((key, "request outcomes do not sum to arrivals"))
            if t["peak_reserved"] > t["budget"]:
                problems.append((key, "peak_reserved exceeds the admission budget"))
        return problems


def _summarise_point(result: Any, point: Any) -> OpResult:
    scale = result.config.scale
    parts = [
        _hex(point.rate), _hex(point.p50), _hex(point.p95), _hex(point.p99),
        _hex(point.p99_norm), _hex(point.goodput), _hex(point.makespan),
        point.peak_reserved,
        sorted((d, s.read_bytes, s.write_bytes) for d, s in point.traffic.items()),
        [(r.outcome, _hex(r.latency)) for r in point.requests],
    ]
    outcomes = (point.completed + point.rejected + point.timed_out
                + point.disconnected)
    tallies = {
        "arrivals": float(point.arrivals),
        "outcomes": float(outcomes),
        "unserved": float(point.rejected + point.timed_out),
        "peak_reserved": float(point.peak_reserved),
        "budget": float(result.admission_budget),
        "goodput": point.goodput,
        "points": 1.0,
        "p99_slowdown": point.p99_norm,
    }
    for device, snap in point.traffic.items():
        tallies[f"{device.lower()}_read_gb"] = snap.read_bytes * scale / 1e9
        tallies[f"{device.lower()}_write_gb"] = snap.write_bytes * scale / 1e9
    return OpResult(digest_of(parts), point.makespan * scale, point.arrivals, tallies)


WORKLOADS = {
    w.name: w
    for w in (
        TraceWorkload(
            "cnn-ca",
            "the paper's CNNs on the CachedArrays stack: allocator, manager "
            "and policy carry the host time, twolm is idle",
            modes=CA_MODES,
            orderings=LOCAL_BEATS_NONE + PREFETCH_SIGNS,
        ),
        TraceWorkload(
            "cnn-2lm",
            "same CNNs on the 2LM hardware-cache baseline: bypasses core and "
            "policies, so a CA-stack change must not move it",
            modes=("2LM:0", "2LM:M"),
            orderings=MEMOPT_HELPS_2LM,
        ),
        TraceWorkload(
            "cnn-ca-observed",
            "same CA layers with full tracing and the monitor on: telemetry "
            "carries a third of the host time instead of 2%",
            modes=("CA:LM", "CA:LMP"),
            orderings=PREFETCH_SIGNS,
            observed=True,
        ),
        TraceWorkload(
            "tiny-objects",
            "thousands of small live objects at DRAM capacity (KLOC regime): "
            "same allocator/manager/policy layers, opposite object-size mix",
            modes=CA_MODES,
            orderings=(),
            traces=_tiny_traces,
            seeded=True,
        ),
        ServeWorkload(
            "serve-churn",
            "open-loop serving sweep: short-lived tenant sessions, detach and "
            "stream spawn/cancel, paths no training trace touches",
        ),
    )
}

"""Layered benchmark runner (see README.md beside this file).

One run — the form the benchmark driver uses:

    python benchmarks/layered/run.py --workload cnn-ca --seed 7 --seconds 15 --trace 0

measures one workload in this process and prints, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--trace`` the command is the report: every selected workload
(``--all`` or ``--workload NAME``) runs untraced and then traced, each run in
its own fresh single-threaded subprocess while this process only waits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import compare
import layers
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = (
    "cnn-ca", "cnn-2lm", "cnn-ca-observed", "tiny-objects", "serve-churn",
)
# The yardstick: a fixed pure-Python loop, the same one `repro bench` times,
# so norm_wall is in the unit ROADMAP's "normalized wall" uses. It lives here
# so that a change to the program cannot move it. The host's speed shifts by
# up to 30% for seconds at a time (a neighbour on the sibling hyperthread), so
# the loop is timed in quarter slices between cells, not once per pass:
# normalising each cell by the two slices around it brought the spread of a
# three-pass median from 6% to under 2% on the box this was written on.
CALIBRATION_ITERATIONS = 2_000_000
SLICES_PER_LOOP = 4
# A reference host runs the whole loop in this many seconds; setup_s and
# events_per_ref_s are stated for that host.
REFERENCE_CALIBRATION_S = 0.100
SETUP_REBUILDS = 9
SETUP_MIN_SAMPLE_S = 0.1   # repeat a fast build until one sample lasts this long
MIN_PASSES = 3         # untraced
MIN_TRACED_PASSES = 2  # after the untraced reference pass of a traced run


def calibration_slice() -> float:
    """Seconds the yardstick loop would take now, read off a quarter of it."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS // SLICES_PER_LOOP):
        acc += i ^ (i >> 3)
    if acc == 0:
        raise AssertionError("calibration loop elided")
    return (time.perf_counter() - start) * SLICES_PER_LOOP


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# -- one run, in this process -----------------------------------------------------


def timed_setup(workload, seed: int, smoke: bool):
    """Build the inputs SETUP_REBUILDS times; return them and the median
    seconds one build takes on the reference host."""
    samples = []
    for _ in range(SETUP_REBUILDS):
        before = calibration_slice()
        start = time.perf_counter()
        builds = 0
        while True:
            inputs = workload.build(seed, smoke)
            builds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SETUP_MIN_SAMPLE_S:
                break
        calibration = (before + calibration_slice()) / 2
        samples.append(elapsed / builds * REFERENCE_CALIBRATION_S / calibration)
    return inputs, statistics.median(samples)


def run_pass(cells: list) -> dict:
    """Execute every cell once; time only the calls into the program, and
    normalise each by the calibration slices just before and after it."""
    gc.collect()
    slices = [calibration_slice()]
    walls, ops, failures = [], {}, []
    for cell in cells:
        raw = None
        start = time.perf_counter()
        try:
            raw = cell.run()
        except Exception as exc:  # the operation failed; keep measuring
            failures.append((cell.key, f"raised {exc!r}"))
        walls.append(time.perf_counter() - start)
        slices.append(calibration_slice())
        if raw is not None:
            ops[cell.key] = cell.summarise(raw)
            del raw
    return {
        "wall": sum(walls),
        "calibration": statistics.fmean(slices),
        "norm": sum(
            wall / ((before + after) / 2)
            for wall, before, after in zip(walls, slices, slices[1:])
        ),
        "ops": ops,
        "failures": failures,
    }


def measure(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> dict:
    """Run one workload and return its full record."""
    import_start = time.perf_counter()
    import numpy

    import workloads  # pulls in the program; the import is what import_s times

    import_s = time.perf_counter() - import_start
    workload = workloads.WORKLOADS[name]

    inputs, setup_s = timed_setup(workload, seed, smoke)
    cells = workload.cells(inputs, smoke)
    cells[0].run()  # warm-up: first-call costs are not the steady state

    loop_start = time.perf_counter()
    reference = run_pass(cells) if traced else None
    recorder = spans.SpanRecorder()
    unresolved = recorder.install(layers.TARGETS) if traced else []
    passes, calls_per_pass, other = [], [], []
    min_passes = 1 if smoke else MIN_TRACED_PASSES if traced else MIN_PASSES
    try:
        while True:
            pass_start = time.perf_counter()
            roots, calls = recorder.root_seconds, _calls(recorder)
            passes.append(run_pass(cells))
            other.append(passes[-1]["wall"] - (recorder.root_seconds - roots))
            calls_per_pass.append(_diff(_calls(recorder), calls))
            now = time.perf_counter()
            if len(passes) >= min_passes and (
                smoke or now - loop_start + (now - pass_start) > seconds
            ):
                break
    finally:
        recorder.uninstall()

    base = reference or passes[0]
    failures = find_failures(workload, base, [*passes, *filter(None, [reference])], traced)
    failed = len({(index, key) for index, key, _ in failures})
    attempted = len(cells) * (len(passes) + (1 if reference else 0))

    walls = [p["wall"] for p in passes]
    norms = [p["norm"] for p in passes]
    events = sum(op.events for op in base["ops"].values())
    record = {
        "workload": name,
        "seed": seed if workload.seeded else None,
        "traced": traced,
        "smoke": smoke,
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_wall_quartiles_s": quartiles(walls),
        "pass_norm_wall": norms,
        "events_per_pass": events,
        "sim_seconds": sum(op.sim_seconds for op in base["ops"].values()),
        "sim_digest": workloads.digest_of(
            [(key, op.digest) for key, op in sorted(base["ops"].items())]
        ),
        "ops": {
            key: {"sim_seconds": op.sim_seconds, "digest": op.digest}
            for key, op in base["ops"].items()
        },
        "attempted": attempted,
        "failed": failed,
        "failures": [list(f) for f in failures],
        "env": environment(numpy.__version__),
    }
    calibrations = [p["calibration"] for p in passes]
    if traced:
        record["unresolved_targets"] = unresolved
        record["calls_stable"] = all(c == calls_per_pass[-1] for c in calls_per_pass)
        record["callables"] = {
            f"{layer}:{label}": {
                "calls": row[spans.CALLS] / len(passes),
                "total_s": row[spans.TOTAL] / len(passes),
                "self_s": row[spans.SELF] / len(passes),
                "raised": row[spans.RAISED] / len(passes),
            }
            for (layer, label), row in sorted(recorder.rows.items())
        }
        record["metrics"] = {
            **layer_metrics(
                recorder, calls_per_pass[-1], len(passes),
                workloads.combine_tallies(base["ops"]), record["sim_seconds"],
            ),
            "harness.traced_wall_s": (statistics.fmean(walls), "s"),
            "harness.other_s": (statistics.fmean(other), "s"),
            "harness.trace_overhead": (
                statistics.median(norms) / reference["norm"], "ratio"),
            "harness.import_s": (import_s, "s"),
            "harness.raw_wall_s": (reference["wall"], "s"),
            "harness.calibration_s": (
                statistics.median([*calibrations, reference["calibration"]]), "s"),
        }
    else:
        record["import_s"] = import_s
        record["calibration_s"] = statistics.median(calibrations)
        record["metrics"] = {
            "setup_s": (setup_s, "s"),
            "norm_wall": (statistics.median(norms), "ratio"),
            "events_per_ref_s": (
                events * len(passes) / (sum(norms) * REFERENCE_CALIBRATION_S),
                "events/s"),
            "peak_rss_mib": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    record["metrics"] = {
        key: {"value": value, "unit": unit}
        for key, (value, unit) in record["metrics"].items()
    }
    return record


def find_failures(workload, base: dict, results: list[dict], traced: bool) -> list:
    """``(pass index, operation, message)`` for every operation that raised,
    broke an invariant, or simulated something other than ``base`` did."""
    which = "traced and untraced runs" if traced else "passes"
    failures = []
    for index, result in enumerate(results):
        for key, message in result["failures"] + workload.check(result["ops"]):
            failures.append((index, key, message))
        for key, op in result["ops"].items():
            expected = base["ops"].get(key)
            if expected is not None and op.digest != expected.digest:
                failures.append((index, key, f"sim digest differs between {which}"))
    return failures


def _calls(recorder) -> dict[str, int]:
    return {layer: row[0] for layer, row in recorder.by_layer().items()}


def _diff(after: dict[str, int], before: dict[str, int]) -> dict[str, int]:
    return {layer: count - before.get(layer, 0) for layer, count in after.items()}


def layer_metrics(recorder, last_calls, passes, tallies, sim_seconds) -> dict:
    """Every per-layer metric but harness.*, named as BENCHMARK.json lists them."""
    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    metrics = {"sim_seconds": (sim_seconds, "sim_s")}
    by_layer = recorder.by_layer()
    for layer in layers.LAYERS:
        row = by_layer.get(layer, [0, 0.0, 0.0, 0])
        metrics[f"{layer}.calls"] = (last_calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (row[spans.SELF] / passes, "s")
    rows = recorder.rows
    allocate = rows.get(("memory.allocator", "FreeListAllocator.allocate"), [0] * 4)
    metrics["memory.allocator.alloc_fail_ratio"] = (
        ratio(allocate[spans.RAISED], allocate[spans.CALLS]), "ratio")
    metrics["core.manager.victims_per_evictfrom"] = (
        ratio(rows.get(("policies", "evict_object"), [0])[spans.CALLS],
              rows.get(("core.manager", "DataManager.evictfrom"), [0])[spans.CALLS]),
        "ratio")
    get = tallies.get
    metrics["twolm.hit_rate"] = (
        ratio(get("cache_hits", 0.0), get("cache_accesses", 0.0)), "ratio")
    metrics["twolm.dirty_miss_rate"] = (
        ratio(get("cache_dirty_misses", 0.0), get("cache_accesses", 0.0)), "ratio")
    metrics["telemetry.events_retained"] = (get("events_retained", 0.0), "count")
    for key in ("compute_s", "kernel_memory_s", "movement_s", "gc_s"):
        metrics[f"sim.{key}"] = (get(key, 0.0), "sim_s")
    for key in ("dram_read_gb", "dram_write_gb", "nvram_read_gb", "nvram_write_gb"):
        metrics[f"memory.{key}"] = (get(key, 0.0), "GB")
    for key in ("evictions", "prefetches", "elided_writebacks",
                "forced_eviction_rounds"):
        metrics[f"policies.{key}"] = (get(key, 0.0), "count")
    metrics["policies.placed_fast_ratio"] = (
        ratio(get("placed_fast", 0.0),
              get("placed_fast", 0.0) + get("placed_slow", 0.0)), "ratio")
    metrics["experiments.serving.goodput_rps"] = (
        ratio(get("goodput", 0.0), get("points", 0.0)), "1/s")
    metrics["experiments.serving.p99_slowdown"] = (get("p99_slowdown", 0.0), "ratio")
    metrics["experiments.serving.rejection_rate"] = (
        ratio(get("unserved", 0.0), get("arrivals", 0.0)), "ratio")
    return metrics


def environment(numpy_version: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "unknown"
    return {
        "git_sha": git_sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def render(record: dict) -> str:
    """One run as text: every metric by name with its unit."""
    kind = "traced (per-layer)" if record["traced"] else "untraced (end-to-end)"
    seed = "seed-free" if record["seed"] is None else f"seed {record['seed']}"
    q1, q2, q3 = record["pass_wall_quartiles_s"]
    lines = [
        f"== {record['workload']} · {kind} · {seed}"
        + (" · SMOKE: not comparable with full runs" if record["smoke"] else ""),
        f"   passes {record['passes']}  pass wall quartiles "
        f"{q1:.3f}/{q2:.3f}/{q3:.3f} s (host)  events/pass "
        f"{record['events_per_pass']}",
        f"   sim_seconds {record['sim_seconds']!r} (sim, exact)  sim_digest "
        f"{record['sim_digest'][:16]}…  operations {record['attempted']} "
        f"failed {record['failed']}",
    ]
    metrics = record["metrics"]
    traced_wall = metrics.get("harness.traced_wall_s", {}).get("value")
    for name, metric in metrics.items():
        share = ""
        if traced_wall and name.endswith(".self_s"):
            share = f"  ({metric['value'] / traced_wall:6.1%} of traced wall)"
        lines.append(f"   {name:40s} {metric['value']:>16.6g} {metric['unit']}{share}")
    for target in record.get("unresolved_targets", []):
        lines.append(f"   ! span target no longer resolves: {target}")
    if record.get("calls_stable") is False:
        lines.append("   ! call counts differed between traced passes")
    for index, key, message in record["failures"]:
        lines.append(f"   ! pass {index} {key}: {message}")
    return "\n".join(lines)


def run_one(args) -> int:
    record = measure(args.workload, args.seed, args.seconds, args.trace == 1, args.smoke)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    print(render(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


# -- the report: every workload, each run in its own subprocess --------------------


def run_set(names, args, scratch: Path) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1")
    traces = [1] if args.traced_only else [0] if args.untraced_only else [0, 1]
    result: dict = {}
    for name in names:
        for trace in traces:
            out = scratch / f"{name}.{trace}.json"
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--json", str(out),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(
                command, env=env, capture_output=True, text=True, timeout=900,
                check=False,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{name} --trace {trace} exited {done.returncode}")
            print("\n".join(done.stdout.splitlines()[:-1]), flush=True)
            result.setdefault(name, {})["traced" if trace else "untraced"] = (
                json.loads(out.read_text())
            )
    return result


def render_speedups(one_set: dict) -> str:
    """CA:LM over 2LM:0 per net, beside the paper and EXPERIMENTS.md."""
    def ops(workload: str) -> dict:
        runs = one_set.get(workload, {})
        return (runs.get("untraced") or runs.get("traced") or {}).get("ops", {})

    ca_ops, base_ops = ops("cnn-ca"), ops("cnn-2lm")
    lines = []
    for key, op in ca_ops.items():
        net, _, mode = key.partition("|")
        base = base_ops.get(f"{net}|2LM:0")
        if mode == "CA:LM" and base:
            lines.append(
                f"   {net:20s} CA:LM over 2LM:0 = "
                f"{base['sim_seconds'] / op['sim_seconds']:.2f}x (sim)"
            )
    if lines:
        lines.insert(0, "== simulated speed-up (not a metric)")
        lines.append(
            "   paper: 1.40-2.03x; EXPERIMENTS.md at scale 16: "
            "1.26x vgg416, 2.34x resnet200, 2.55x densenet264"
        )
    return "\n".join(lines)


def run_report(args) -> int:
    names = WORKLOAD_NAMES if args.all else (args.workload,)
    sets = []
    with tempfile.TemporaryDirectory(prefix="layered-") as scratch:
        for index in range(args.sets):
            if args.sets > 1:
                print(f"#### set {index + 1} of {args.sets}")
            sets.append(run_set(names, args, Path(scratch)))
            print(render_speedups(sets[-1]))
    if args.json:
        Path(args.json).write_text(json.dumps({"sets": sets}, indent=1))
    failed = sum(
        record["failed"]
        for one_set in sets for runs in one_set.values() for record in runs.values()
    )
    status = 1 if failed else 0
    if len(sets) > 1:
        status |= compare.report(sets[0], sets[1])
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7,
                        help="feeds tiny-objects and serve-churn; the CNN "
                             "traces are seed-free (default 7)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure passes for about this long "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one in-process run: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 1024, one net, one pass: a self-test, "
                             "not comparable with full runs")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the report this many times; 2 compares them")
    parser.add_argument("--traced-only", action="store_true")
    parser.add_argument("--untraced-only", action="store_true")
    parser.add_argument("--json", metavar="PATH", help="write the full record(s)")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --all and --workload NAME")
    if args.trace is not None and args.all:
        parser.error("--trace runs one workload; name it with --workload")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args) if args.trace is not None else run_report(args)


if __name__ == "__main__":
    sys.exit(main())

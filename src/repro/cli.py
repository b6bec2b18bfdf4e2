"""Command-line entry: regenerate any table or figure of the paper.

Usage::

    python -m repro table3
    python -m repro fig2 [--scale N] [--iterations N] [--json]
    python -m repro fig3 ... fig7
    python -m repro all
    python -m repro trace --model resnet200-large [--out trace.json]
    python -m repro profile --model tiny [--mode CA:LM] [--out trace.json]
    python -m repro explain run.jsonl [--window K] [--out report.json]
    python -m repro diff a.jsonl b.jsonl [--window K] [--out report.json]
    python -m repro monitor [run.jsonl | --model tiny] [--interval S] [--json]
    python -m repro chaos [--plan copy-flaky | --plan all] [--dump-dir D] [--json]
    python -m repro chaos --bisect --plan bisect-demo [--json]
    python -m repro bench [--quick] [--baseline FILE] [--threshold 0.2]
    python -m repro colo [--tenants cnn,dlrm] [--check] [--json]
    python -m repro snapshot --model tiny [--mode CA:LM] [--pause-after K] --out s.bin
    python -m repro restore s.bin [--pause-after K --out s2.bin]
    python -m repro serve [--rates R1,R2,..] [--requests N] [--slots N] [--check] [--json]
    python -m repro taxonomy [--workloads W1,W2,..] [--modes M1,..] [--check] [--json]

Times are reported rescaled to paper magnitudes (see
:class:`~repro.experiments.common.ExperimentConfig`). ``--json`` emits a
machine-readable results summary instead of the text report; ``trace``
exports a model's kernel trace as a portable JSON artifact
(:mod:`repro.workloads.serialize`); ``profile`` runs a model with event
tracing on and prints the movement-attribution report, optionally writing a
Perfetto-loadable Chrome trace (``--out``) and/or a raw event stream
(``--jsonl``) — see ``docs/observability.md``. ``explain`` folds one such
event stream into a lifetime-ledger report (where the time went, which
objects thrash); ``diff`` aligns two streams of the same workload
kernel-by-kernel and attributes the end-to-end virtual-time delta to named
kernels, objects, and root causes (docs/observability.md, "Explaining a
run"). ``monitor`` folds a run — a recorded stream or a fresh ``--model``
run — through the always-on runtime monitor and prints its health dashboard:
windowed rollups, latency percentiles, alerts, flight-recorder state
(docs/observability.md, "Live monitoring"). ``chaos`` runs the workloads
under a named fault plan and reports recovery outcomes (exit status 1 if any
scenario violates the robustness contract); failing scenarios name their
flight-recorder dump — see ``docs/robustness.md``.
``bench`` runs the pinned performance suite at ``BENCH_SCALE``, writes a
``BENCH_<date>.json`` trajectory point, and gates against the previous
point (exit status 1 on regression) — see ``docs/benchmarking.md``.
``colo`` co-runs two or more tenant workloads on one shared memory system
under the multi-stream scheduler and reports per-tenant slowdown vs solo,
fairness, aggregate traffic, and cross-tenant stall attribution
(``--check`` additionally enforces determinism and the >=90% attribution
contract) — see ``docs/architecture.md``, "Multi-tenant runtime".
``snapshot`` pauses a run at a kernel boundary and serializes the complete
runtime state; ``restore`` resumes it — in the same or a fresh process — to
a bit-identical final digest, and ``chaos --bisect`` uses the same
checkpoints to binary-search a failing plan's fired faults down to the
narrowest window that still reproduces the failure — see
``docs/robustness.md``, "Elastic operations".
``serve`` drives the shared runtime with a seeded open-loop arrival process
of short-lived request sessions (KV-cache-like lifetimes) under admission
control, sweeping offered load and reporting latency percentiles, goodput,
rejection rate, and fairness per rate point; ``--check`` additionally
enforces determinism across two runs and the sweep-shape monotonicity
gates — see ``docs/serving.md``.
``taxonomy`` runs the movement-signature workloads under every operating
mode, classifies each run into DAMOV-style bottleneck classes
(compute/bandwidth/latency/capacity), and prints the workload x policy
matrix with per-class verdicts, the winning mode per workload, and ledger
evidence; ``--check`` additionally enforces determinism across two runs
plus the classification contract (pinned reference verdicts, exact class
fractions, monitor-tier agreement) — see ``docs/observability.md``,
"Bottleneck attribution".
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig

__all__ = ["main"]

EXPERIMENTS = ("table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ext")

# Every valid first positional argument. ``tools/check_docs.py`` imports this
# to verify that docs never reference a subcommand that does not exist.
SUBCOMMANDS = EXPERIMENTS + (
    "all", "trace", "profile", "explain", "diff", "monitor", "chaos",
    "bench", "colo", "snapshot", "restore", "serve", "taxonomy",
)


def _module_for(name: str):
    if name == "table3":
        from repro.experiments import table3_models as module
    elif name == "fig2":
        from repro.experiments import fig2_runtime as module
    elif name == "fig3":
        from repro.experiments import fig3_heap as module
    elif name == "fig4":
        from repro.experiments import fig4_cachestats as module
    elif name == "fig5":
        from repro.experiments import fig5_traffic as module
    elif name == "fig6":
        from repro.experiments import fig6_utilization as module
    elif name == "fig7":
        from repro.experiments import fig7_sensitivity as module
    elif name == "ext":
        from repro.experiments import extensions as module
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown experiment {name!r}")
    return module


def _run_one(name: str, config: ExperimentConfig, *, as_json: bool) -> str:
    module = _module_for(name)
    result = module.run() if name == "table3" else module.run(config)
    if as_json:
        return json.dumps({name: _summarise(name, result, config)}, indent=2)
    return module.render(result)


def _summarise(name: str, result, config: ExperimentConfig) -> dict:
    """A compact JSON summary per experiment (full data stays in Python)."""
    scale = config.scale
    if name == "table3":
        return {
            row.spec.key: {
                "batch": row.spec.batch,
                "measured_footprint_bytes": row.measured_footprint,
                "paper_footprint_bytes": row.spec.paper_footprint,
                "kernels": row.kernels,
            }
            for row in result.rows
        }
    if name in ("fig2", "fig5", "fig6"):
        out: dict = {}
        for model, by_mode in result.results.items():
            out[model] = {}
            for mode, mode_result in by_mode.items():
                iteration = mode_result.iteration
                entry = {
                    "seconds": round(iteration.seconds * scale, 2),
                    "traffic_gb": {
                        device: [
                            round(v, 1) for v in mode_result.traffic_gb(device)
                        ]
                        for device in iteration.traffic
                    },
                }
                if name == "fig6":
                    entry["dram_utilization"] = round(
                        mode_result.dram_utilization(), 4
                    )
                out[model][mode] = entry
        return out
    if name == "fig3":
        return {
            "model": result.model,
            "peak_heap_gb": {
                "2LM:0": round(result.peak_gb(result.unoptimized), 1),
                "2LM:M": round(result.peak_gb(result.optimized), 1),
            },
            "gc_collections_2lm0": result.unoptimized.iteration.gc_collections,
        }
    if name == "fig4":
        base = result.stats(result.unoptimized)
        opt = result.stats(result.optimized)
        return {
            "2LM:0": {
                "hit_rate": round(base.hit_rate, 4),
                "clean_miss_rate": round(base.clean_miss_rate, 4),
                "dirty_miss_rate": round(base.dirty_miss_rate, 4),
            },
            "2LM:M": {
                "hit_rate": round(opt.hit_rate, 4),
                "clean_miss_rate": round(opt.clean_miss_rate, 4),
                "dirty_miss_rate": round(opt.dirty_miss_rate, 4),
            },
        }
    if name == "ext":
        scale = config.scale
        return {
            "platforms_seconds": {
                label: round(it.seconds * scale, 1)
                for label, it in result.platforms.items()
            },
            "async_seconds": result.async_movement,
            "numa_seconds": {
                label: round(it.seconds * scale, 1)
                for label, it in result.numa.items()
            },
        }
    if name == "fig7":
        return {
            model: {
                str(budget): {
                    "wall_seconds": round(result.seconds(model, budget), 2),
                    "async_projection_seconds": round(
                        result.async_seconds(model, budget), 2
                    ),
                }
                for budget in result.budgets_gb
            }
            for model in result.results
        }
    raise ValueError(name)  # pragma: no cover


def _export_trace(model: str, out_path: str | None, scale: int) -> int:
    from repro.nn.models import MODEL_REGISTRY
    from repro.workloads.serialize import save_trace

    if model not in MODEL_REGISTRY:
        print(
            f"unknown model {model!r}; known: {', '.join(sorted(MODEL_REGISTRY))}",
            file=sys.stderr,
        )
        return 2
    trace = MODEL_REGISTRY[model].builder().training_trace()
    if scale > 1:
        trace = trace.scaled(scale)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fp:
            save_trace(trace, fp)
        print(
            f"wrote {trace.name}: {len(trace.events)} events, "
            f"{len(trace.tensors)} tensors -> {out_path}"
        )
    else:
        save_trace(trace, sys.stdout)
    return 0


def _profile(
    model: str,
    mode: str,
    out_path: str | None,
    jsonl_path: str | None,
    config: ExperimentConfig,
) -> int:
    from repro.experiments import profile as profile_mod
    from repro.telemetry.export import write_jsonl

    if model not in profile_mod.available_models():
        print(
            f"unknown model {model!r}; known: "
            f"{', '.join(profile_mod.available_models())}",
            file=sys.stderr,
        )
        return 2
    try:
        result = profile_mod.run_profile(model, mode, config)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fp:
            json.dump(result.chrome_trace(), fp)
        print(f"wrote Chrome trace ({len(result.events)} events) -> {out_path}")
    if jsonl_path:
        with open(jsonl_path, "w", encoding="utf-8") as fp:
            write_jsonl(result.events, fp)
        print(f"wrote event stream -> {jsonl_path}")
    print(profile_mod.render(result))
    return 0


def _load_events(path: str):
    """Open a JSONL trace as a lazy, re-iterable :class:`EventStream`.

    The analyzers stream the file per pass instead of materializing the
    whole run (O(1) memory on multi-million-event traces). The first event
    is probed eagerly so a missing file or a non-JSONL file still fails
    right here with a friendly message rather than mid-analysis.
    """
    from repro.telemetry.export import EventStream, iter_jsonl

    try:
        with open(path, "r", encoding="utf-8") as fp:
            for _ in iter_jsonl(fp):
                break
        return EventStream(path)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"{path} is not a JSONL event stream: {exc}", file=sys.stderr)
    return None


def _explain(
    paths: list[str], *, window: int, out: str | None, as_json: bool
) -> int:
    from repro.telemetry.diff import explain_run, stall_attribution, streams_in

    if len(paths) != 1:
        print(
            "explain takes exactly one trace path "
            "(write one with: profile --model ... --jsonl run.jsonl)",
            file=sys.stderr,
        )
        return 2
    events = _load_events(paths[0])
    if events is None:
        return 2
    # A multi-stream trace (a co-located run) gets one report per tenant
    # stream plus the cross-tenant stall attribution; a single-stream trace
    # keeps the historical single-report output.
    streams = streams_in(events)
    if streams:
        explanations = [
            explain_run(
                events, label=paths[0], ping_pong_window=window, stream=name
            )
            for name in streams
        ]
        attribution = stall_attribution(events)
        payload: dict = {
            "streams": {
                name: exp.to_json()
                for name, exp in zip(streams, explanations)
            },
            "stall_attribution": attribution,
        }
        if out:
            with open(out, "w", encoding="utf-8") as fp:
                json.dump(payload, fp, indent=2, sort_keys=True)
            print(f"wrote explanation -> {out}")
        if as_json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for exp in explanations:
                print(exp.render())
                print()
            print(
                f"stall attribution: "
                f"{attribution['attributed_fraction']:.1%} of "
                f"{attribution['total_stall_seconds']:.6f} s of movement-wait "
                f"attributed to (stream, object) pairs"
            )
            for pair in attribution["pairs"][:8]:
                print(
                    f"  {pair['stream'] or '<unattributed>'}: "
                    f"{pair['object']} {pair['seconds']:.6f} s"
                )
        return 0
    explanation = explain_run(
        events, label=paths[0], ping_pong_window=window
    )
    if out:
        with open(out, "w", encoding="utf-8") as fp:
            json.dump(explanation.to_json(), fp, indent=2, sort_keys=True)
        print(f"wrote explanation -> {out}")
    if as_json:
        print(json.dumps(explanation.to_json(), indent=2, sort_keys=True))
    else:
        print(explanation.render())
    return 0


def _check_contract(
    result, rerun, problems: list[str], ok_line: str, fail_prefix: str, as_json: bool
) -> int:
    """The ``--check`` CI contract of colo/serve/taxonomy.

    The experiment must be (a) deterministic — ``rerun()``, a second
    identical run, produces the same digest — and (b) pass its own gates:
    ``problems`` lists the ones ``result`` failed. With ``--json`` the
    prose goes to stderr so stdout stays pure JSON.
    """
    info = sys.stderr if as_json else sys.stdout
    repeat = rerun()
    deterministic = repeat.digest() == result.digest()
    if deterministic:
        print("determinism: digests match across repeated runs", file=info)
    else:
        print(
            f"DETERMINISM FAIL: digests differ across identical runs "
            f"({result.digest()} vs {repeat.digest()})",
            file=info,
        )
    for problem in problems:
        print(f"{fail_prefix}: {problem}", file=info)
    if not problems:
        print(ok_line, file=info)
    return 0 if deterministic and not problems else 1


def _colo(
    tenants: str,
    config: ExperimentConfig,
    *,
    mode: str,
    check: bool,
    as_json: bool,
) -> int:
    from repro.experiments import colo as colo_mod

    names = tuple(t.strip() for t in tenants.split(",") if t.strip())
    try:
        result = colo_mod.run_colo(names, config, mode_name=mode)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(colo_mod.render(result))
    if not check:
        return 0
    # --check: the co-run must also be explainable — at least 90% of
    # movement-wait stall time attributed to a specific (tenant, object) pair.
    fraction = result.attribution.get("attributed_fraction", 0.0)
    return _check_contract(
        result,
        lambda: colo_mod.run_colo(names, config, mode_name=mode),
        [f"only {fraction:.1%} of stall time attributed (need >= 90%)"]
        if fraction < 0.9
        else [],
        f"attribution: {fraction:.1%} of stall time attributed",
        "ATTRIBUTION FAIL",
        as_json,
    )


def _serve(
    config: ExperimentConfig,
    *,
    mode: str,
    rates: str | None,
    requests: int,
    slots: int,
    seed: int,
    check: bool,
    as_json: bool,
) -> int:
    from repro.experiments import serving as serving_mod

    explicit_rates: tuple[float, ...] | None = None
    if rates:
        try:
            explicit_rates = tuple(
                float(r.strip()) for r in rates.split(",") if r.strip()
            )
        except ValueError:
            print(
                f"--rates must be comma-separated numbers, got {rates!r}",
                file=sys.stderr,
            )
            return 2
    # --check pins the documented 3-point sweep (unless --rates overrides
    # it): one point below saturation and two past it, so the monotonicity
    # gates have load points on both sides of the knee.
    multipliers = (
        serving_mod.CHECK_MULTIPLIERS
        if check and explicit_rates is None
        else serving_mod.ServingConfig.rate_multipliers
    )
    try:
        serving_cfg = serving_mod.ServingConfig(
            slots=slots,
            requests=requests,
            seed=seed,
            rates=explicit_rates,
            rate_multipliers=multipliers,
        )
        result = serving_mod.run_serving(config, serving_cfg, mode_name=mode)
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(serving_mod.render(result))
    if not check:
        return 0
    # --check: the sweep must also be shaped like a saturating system:
    # normalized p99 never falls as load rises, goodput never rises past
    # saturation (see check_serving).
    return _check_contract(
        result,
        lambda: serving_mod.run_serving(config, serving_cfg, mode_name=mode),
        serving_mod.check_serving(result),
        "sweep shape: normalized p99 non-decreasing, goodput "
        "non-increasing past saturation",
        "SWEEP-SHAPE FAIL",
        as_json,
    )


def _taxonomy(
    config: ExperimentConfig,
    *,
    workloads: str | None,
    modes: str | None,
    check: bool,
    as_json: bool,
) -> int:
    from repro.experiments import taxonomy as taxonomy_mod

    names = (
        tuple(w.strip() for w in workloads.split(",") if w.strip())
        if workloads
        else taxonomy_mod.DEFAULT_WORKLOADS
    )
    mode_names = (
        tuple(m.strip() for m in modes.split(",") if m.strip())
        if modes
        else None
    )
    try:
        result = taxonomy_mod.run_taxonomy(
            config, workloads=names, modes=mode_names
        )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if as_json:
        print(json.dumps(result.to_json(), indent=2, sort_keys=True))
    else:
        print(taxonomy_mod.render(result))
    if not check:
        return 0
    # --check: the matrix must also be correctly classified: fractions sum
    # to 1, >=95% of reference-cell time is attributed, pinned verdicts
    # hold, and the cheap monitor tier agrees with the full trace (see
    # check_taxonomy).
    return _check_contract(
        result,
        lambda: taxonomy_mod.run_taxonomy(
            config, workloads=names, modes=mode_names
        ),
        taxonomy_mod.check_taxonomy(result),
        "classification: fractions exact, verdicts pinned, "
        "monitor tier agrees with full trace",
        "CLASSIFICATION FAIL",
        as_json,
    )


def _diff(
    paths: list[str], *, window: int, out: str | None, as_json: bool
) -> int:
    from repro.telemetry.diff import diff_runs

    if len(paths) != 2:
        print(
            "diff takes exactly two trace paths (baseline first): "
            "python -m repro diff a.jsonl b.jsonl",
            file=sys.stderr,
        )
        return 2
    events_a = _load_events(paths[0])
    if events_a is None:
        return 2
    events_b = _load_events(paths[1])
    if events_b is None:
        return 2
    run_diff = diff_runs(
        events_a,
        events_b,
        label_a=paths[0],
        label_b=paths[1],
        ping_pong_window=window,
    )
    if out:
        with open(out, "w", encoding="utf-8") as fp:
            json.dump(run_diff.to_json(), fp, indent=2, sort_keys=True)
        print(f"wrote diff report -> {out}")
    if as_json:
        print(json.dumps(run_diff.to_json(), indent=2, sort_keys=True))
    else:
        print(run_diff.render())
    return 0


def _monitor(
    paths: list[str],
    model: str | None,
    mode: str,
    config: ExperimentConfig,
    *,
    interval: float,
    out: str | None,
    dump_dir: str | None,
    as_json: bool,
) -> int:
    """The runtime-monitor dashboard: health, rollups, latencies, alerts.

    Two sources: replay an existing JSONL trace (positional path), or attach
    the monitor to a fresh run of ``--model`` under ``--mode``. Either way
    the run folds into bounded-memory rollups and prints one
    :class:`HealthSnapshot` dashboard (``--json`` for the machine form;
    ``--out`` additionally writes the occupancy / in-flight-copy counter
    tracks as a Perfetto-loadable Chrome trace).
    """
    from dataclasses import replace

    from repro.telemetry.export import to_chrome_trace
    from repro.telemetry.monitor import MonitorConfig, RuntimeMonitor

    if interval <= 0:
        print("--interval must be positive", file=sys.stderr)
        return 2
    monitor_cfg = MonitorConfig(window_seconds=interval, dump_dir=dump_dir)
    events_for_trace = []
    if paths:
        if len(paths) != 1 or model:
            print(
                "monitor takes one recorded trace path (from 'profile "
                "--jsonl') or --model to run live, not both",
                file=sys.stderr,
            )
            return 2
        stream = _load_events(paths[0])
        if stream is None:
            return 2
        monitor = RuntimeMonitor(monitor_cfg)
        monitor.observe_all(stream)
        monitor.finish()
        events_for_trace = stream
        label = paths[0]
    else:
        if not model:
            print(
                "monitor needs a recorded trace path or --model "
                "(e.g. python -m repro monitor --model tiny)",
                file=sys.stderr,
            )
            return 2
        from repro.experiments import profile as profile_mod
        from repro.experiments.common import run_trace_mode

        run_config = replace(config, monitor=True, monitor_config=monitor_cfg)
        try:
            trace = profile_mod.trace_for(model, run_config)
            result = run_trace_mode(trace, mode, run_config, model_label=model)
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        monitor = result.monitor
        label = f"{model} under {mode}"
    if out:
        doc = to_chrome_trace(
            events_for_trace, timelines=monitor.counter_timelines()
        )
        with open(out, "w", encoding="utf-8") as fp:
            json.dump(doc, fp)
        # With --json, stdout carries exactly the snapshot document.
        info = sys.stderr if as_json else sys.stdout
        print(f"wrote counter trace -> {out}", file=info)
    snapshot = monitor.snapshot(recent_windows=8)
    if as_json:
        print(json.dumps(snapshot.to_json(), indent=2, sort_keys=True))
    else:
        print(f"runtime monitor: {label}")
        print(snapshot.render())
    return 0


def _snapshot_cmd(
    model: str,
    mode: str,
    out_path: str | None,
    config: ExperimentConfig,
    *,
    pause_after: int,
) -> int:
    """Run a model, pause at a kernel boundary, and save the runtime snapshot.

    When the run finishes before ``pause_after`` kernels there is nothing to
    snapshot; the final digest is printed instead (the same digest `restore`
    prints on completion, so the pair scripts a round-trip check).
    """
    from repro.runtime.elastic import (
        RuntimeSnapshot,
        checkpoint_model_mode,
        digest_mode_result,
        save_snapshot,
    )

    try:
        result = checkpoint_model_mode(
            model, mode, config, pause_after=pause_after
        )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if isinstance(result, RuntimeSnapshot):
        if not out_path:
            print("snapshot requires --out to name the snapshot file",
                  file=sys.stderr)
            return 2
        save_snapshot(result, out_path)
        print(
            f"paused {result.label} at t={result.virtual_time:.6f} "
            f"after {result.kernels_done} kernels -> {out_path}"
        )
        return 0
    print(
        f"run completed before kernel {pause_after}; "
        f"digest {digest_mode_result(result)}"
    )
    return 0


def _restore_cmd(
    paths: list[str], out_path: str | None, *, pause_after: int | None
) -> int:
    """Resume a saved snapshot; print the final digest (or re-pause)."""
    from repro.runtime.elastic import (
        RuntimeSnapshot,
        digest_mode_result,
        load_snapshot,
        resume_snapshot,
    )

    if len(paths) != 1:
        print(
            "restore takes exactly one snapshot path (written by 'snapshot "
            "--out')",
            file=sys.stderr,
        )
        return 2
    try:
        snapshot = load_snapshot(paths[0])
        result = resume_snapshot(snapshot, pause_after=pause_after)
    except (ConfigurationError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if isinstance(result, RuntimeSnapshot):
        if not out_path:
            print(
                "re-pausing (--pause-after) requires --out for the chained "
                "snapshot",
                file=sys.stderr,
            )
            return 2
        from repro.runtime.elastic import save_snapshot

        save_snapshot(result, out_path)
        print(
            f"paused {result.label} at t={result.virtual_time:.6f} "
            f"after {result.kernels_done} kernels -> {out_path}"
        )
        return 0
    print(
        f"resumed {snapshot.label} from kernel {snapshot.kernels_done}; "
        f"digest {digest_mode_result(result)}"
    )
    return 0


def _bisect(plan_name: str, *, as_json: bool) -> int:
    from repro.faults.chaos import bisect_plan
    from repro.faults.plan import FAULT_PLANS

    if plan_name not in FAULT_PLANS:
        print(
            f"--bisect needs a specific fault plan, not {plan_name!r}; "
            f"known: {', '.join(FAULT_PLANS)}",
            file=sys.stderr,
        )
        return 2
    result = bisect_plan(plan_name)
    if as_json:
        print(
            json.dumps(
                {
                    "plan": result.plan.name,
                    "error": result.error,
                    "failing_step": result.failing_step,
                    "fired_total": result.fired_total,
                    "probes": result.probes,
                    "window": [fault.to_json() for fault in result.window],
                },
                indent=2,
            )
        )
    else:
        print(result.render())
    # Exit 0 when the plan passed (nothing to narrow) or the window was
    # isolated; 1 only when a failure resisted narrowing.
    return 0 if (not result.error or result.ok) else 1


def _chaos(
    plan_name: str, *, as_json: bool, dump_dir: str | None = None
) -> int:
    import tempfile

    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FAULT_PLANS

    if plan_name == "all":
        names = tuple(FAULT_PLANS)
    elif plan_name in FAULT_PLANS:
        names = (plan_name,)
    else:
        print(
            f"unknown fault plan {plan_name!r}; known: "
            f"{', '.join(FAULT_PLANS)} (or 'all')",
            file=sys.stderr,
        )
        return 2
    # Flight-recorder dumps outlive the process so a failing scenario's
    # black box can be inspected (or attached to a CI artifact): default to
    # a fresh temp directory rather than discarding the recordings.
    if dump_dir is None:
        dump_dir = tempfile.mkdtemp(prefix="repro-chaos-flight-")
    reports = [run_chaos(name, dump_dir=dump_dir) for name in names]
    if as_json:
        print(
            json.dumps(
                {
                    report.plan.name: {
                        "ok": report.ok,
                        "scenarios": {
                            o.scenario: {
                                "ok": o.ok,
                                "completed": o.completed,
                                "error": o.error,
                                "typed_abort": o.typed_abort,
                                "digests_match": o.digests_match,
                                "invariants_clean": o.invariants_clean,
                                "faults_fired": o.faults_fired,
                                "recoveries": o.recoveries,
                                "copy_retries": o.copy_retries,
                                "strikes": o.strikes,
                                "quarantined": o.quarantined,
                                "flight_record": o.flight_record,
                            }
                            for o in report.outcomes
                        },
                    }
                    for report in reports
                },
                indent=2,
            )
        )
    else:
        for report in reports:
            print(report.render())
            print()
        failed = [r.plan.name for r in reports if not r.ok]
        verdict = (
            f"FAILED plans: {', '.join(failed)}"
            if failed
            else f"all {len(reports)} plan(s) honoured the robustness contract"
        )
        print(verdict)
    return 0 if all(report.ok for report in reports) else 1


def _bench(
    *,
    quick: bool,
    out: str | None,
    baseline: str | None,
    threshold: float,
    as_json: bool,
) -> int:
    import os

    from repro.bench import (
        bench_filename,
        compare,
        load_report,
        run_suite,
        write_report,
    )

    try:
        report = run_suite(quick=quick)
    except ValueError as exc:  # bad BENCH_SCALE
        print(str(exc), file=sys.stderr)
        return 2

    # Resolve the output path: --out may name a file or a directory;
    # default is bench-results/BENCH_<date>.json (gitignored scratch).
    if out and out.endswith(".json"):
        out_dir, out_path = os.path.dirname(out) or ".", out
    else:
        out_dir = out or "bench-results"
        out_path = os.path.join(
            out_dir, bench_filename(report.created_at[:10])
        )
    os.makedirs(out_dir, exist_ok=True)

    # Previous trajectory point: explicit --baseline, else the newest
    # BENCH_*.json already in the output directory (dates sort); a same-day
    # rerun gates against the point it is about to overwrite, so the
    # baseline must be loaded *before* the report is written.
    previous_path = baseline
    if previous_path is None:
        candidates = sorted(
            name
            for name in os.listdir(out_dir)
            if name.startswith("BENCH_")
            and name.endswith(".json")
            and os.path.join(out_dir, name) != out_path
        )
        if candidates:
            previous_path = os.path.join(out_dir, candidates[-1])
        elif os.path.exists(out_path):
            previous_path = out_path
    previous = None
    if previous_path is not None:
        try:
            previous = load_report(previous_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(
                f"cannot read baseline {previous_path}: {exc}", file=sys.stderr
            )
            return 2

    write_report(report, out_path)
    if as_json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(f"wrote trajectory point -> {out_path}")
        for name, record in sorted(report.benchmarks.items()):
            extras = []
            if record.events_per_second is not None:
                extras.append(f"{record.events_per_second:,.0f} events/s")
            if record.sim_to_wall is not None:
                extras.append(f"sim/wall {record.sim_to_wall:.2f}")
            suffix = f" ({', '.join(extras)})" if extras else ""
            print(f"  {name:<18} {record.wall_seconds:8.3f} s{suffix}")

    # With --json, stdout carries exactly the report; gate prose goes to
    # stderr so `python -m repro bench --json > point.json` stays parseable.
    info = sys.stderr if as_json else sys.stdout
    if previous is None:
        print("no previous trajectory point; regression gate skipped", file=info)
        return 0
    comparison = compare(report, previous, threshold=threshold)
    print(f"gate vs {previous_path}:", file=info)
    print(comparison.render(), file=info)
    return 0 if comparison.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cachedarrays",
        description="Regenerate the CachedArrays (IPDPS 2024) tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=SUBCOMMANDS,
        help="which table/figure to regenerate, 'trace' to export a model's "
        "kernel trace, 'profile' to run one with event tracing on, "
        "'explain' to report on a recorded event stream, 'diff' to "
        "attribute the delta between two recorded runs, 'monitor' to "
        "fold a run (recorded or live) into the runtime-monitor health "
        "dashboard, 'chaos' to run "
        "the fault-injection suite, 'bench' to run the pinned "
        "performance suite, 'colo' to co-run tenant workloads on one "
        "shared memory system, 'snapshot' to pause a run at a kernel "
        "boundary and save it, 'restore' to resume a saved snapshot, "
        "'serve' to sweep open-loop request load over the shared runtime, "
        "or 'taxonomy' to classify the movement-signature workloads into "
        "bottleneck classes across every operating mode",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="JSONL event streams for 'explain' (one), 'diff' (two, "
        "baseline first), and 'monitor' (one, optional); written by "
        "'profile --jsonl'. For 'restore': one snapshot file written by "
        "'snapshot --out'",
    )
    parser.add_argument(
        "--scale",
        type=int,
        default=16,
        help="divide workload and device sizes by this factor (default 16)",
    )
    parser.add_argument(
        "--iterations",
        type=int,
        default=2,
        help="training iterations per run; the last is reported (default 2)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable summary instead of the text report",
    )
    parser.add_argument(
        "--model", help="model key for the 'trace' and 'profile' commands"
    )
    parser.add_argument(
        "--out",
        help="output path: the kernel trace for 'trace', the Chrome "
        "trace-event JSON for 'profile'",
    )
    parser.add_argument(
        "--mode",
        default="CA:LM",
        help="operating mode for 'profile' (default CA:LM)",
    )
    parser.add_argument(
        "--jsonl", help="also write the raw event stream ('profile' only)"
    )
    parser.add_argument(
        "--window",
        type=int,
        default=8,
        help="explain/diff: kernels within which an evict-then-refetch "
        "counts as a ping-pong (default 8)",
    )
    parser.add_argument(
        "--plan",
        default="all",
        help="fault plan for 'chaos': a plan name or 'all' (default all)",
    )
    parser.add_argument(
        "--bisect",
        action="store_true",
        help="chaos: binary-search the named --plan's fired faults down to "
        "the narrowest window that still reproduces the failure",
    )
    parser.add_argument(
        "--pause-after",
        type=int,
        default=None,
        help="snapshot/restore: pause after this many completed kernels "
        "(snapshot default 8; restore default runs to completion)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=0.25,
        help="monitor: rollup window length in virtual seconds "
        "(default 0.25)",
    )
    parser.add_argument(
        "--dump-dir",
        help="monitor/chaos: directory for flight-recorder dumps "
        "(chaos defaults to a fresh temp directory)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="bench: reduced suite for CI smoke runs (see docs/benchmarking.md)",
    )
    parser.add_argument(
        "--baseline",
        help="bench: gate against this BENCH_*.json instead of the newest "
        "point in the output directory",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="bench: fail when normalized wall time regresses more than "
        "this fraction (default 0.2)",
    )
    parser.add_argument(
        "--tenants",
        default="cnn,dlrm",
        help="colo: comma-separated tenant workloads to co-run "
        "(default cnn,dlrm; known: cnn, dlrm, stream)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="colo/serve/taxonomy: verify determinism across two runs plus "
        "the command's result contract (exit status 1 on failure)",
    )
    parser.add_argument(
        "--workloads",
        help="taxonomy: comma-separated movement-signature workloads "
        "(default pointer-chase,scan,tiny-objects,stream-compute)",
    )
    parser.add_argument(
        "--modes",
        help="taxonomy: comma-separated operating modes to sweep "
        "(default: all six; must include the CA:LM reference mode)",
    )
    parser.add_argument(
        "--rates",
        help="serve: comma-separated offered loads in requests/s (default: "
        "multiples of the measured saturation rate)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=60,
        help="serve: arrivals per rate point (default 60)",
    )
    parser.add_argument(
        "--slots",
        type=int,
        default=4,
        help="serve: concurrent request slots, as in llama.cpp's parallel "
        "example (default 4)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="serve: arrival-process seed (default 7)",
    )
    args = parser.parse_args(argv)
    if args.paths and args.experiment not in (
        "explain", "diff", "monitor", "restore"
    ):
        parser.error(
            f"positional paths only apply to 'explain', 'diff', 'monitor', "
            f"and 'restore', not {args.experiment!r}"
        )
    if args.experiment == "restore":
        return _restore_cmd(
            args.paths, args.out, pause_after=args.pause_after
        )
    if args.experiment == "explain":
        return _explain(
            args.paths, window=args.window, out=args.out, as_json=args.json
        )
    if args.experiment == "diff":
        return _diff(
            args.paths, window=args.window, out=args.out, as_json=args.json
        )
    if args.experiment == "bench":
        return _bench(
            quick=args.quick,
            out=args.out,
            baseline=args.baseline,
            threshold=args.threshold,
            as_json=args.json,
        )
    if args.experiment == "chaos":
        if args.bisect:
            return _bisect(args.plan, as_json=args.json)
        return _chaos(args.plan, as_json=args.json, dump_dir=args.dump_dir)
    if args.experiment == "trace":
        if not args.model:
            parser.error("trace requires --model")
        return _export_trace(args.model, args.out, args.scale)
    config = ExperimentConfig(scale=args.scale, iterations=args.iterations)
    if args.experiment == "snapshot":
        if not args.model:
            parser.error("snapshot requires --model")
        return _snapshot_cmd(
            args.model,
            args.mode,
            args.out,
            config,
            pause_after=args.pause_after or 8,
        )
    if args.experiment == "monitor":
        return _monitor(
            args.paths,
            args.model,
            args.mode,
            config,
            interval=args.interval,
            out=args.out,
            dump_dir=args.dump_dir,
            as_json=args.json,
        )
    if args.experiment == "serve":
        return _serve(
            config,
            mode=args.mode,
            rates=args.rates,
            requests=args.requests,
            slots=args.slots,
            seed=args.seed,
            check=args.check,
            as_json=args.json,
        )
    if args.experiment == "taxonomy":
        return _taxonomy(
            config,
            workloads=args.workloads,
            modes=args.modes,
            check=args.check,
            as_json=args.json,
        )
    if args.experiment == "colo":
        return _colo(
            args.tenants,
            config,
            mode=args.mode,
            check=args.check,
            as_json=args.json,
        )
    if args.experiment == "profile":
        if not args.model:
            parser.error("profile requires --model")
        return _profile(args.model, args.mode, args.out, args.jsonl, config)
    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    for name in names:
        print(_run_one(name, config, as_json=args.json))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

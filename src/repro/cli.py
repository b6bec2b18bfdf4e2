"""Command-line entry: ``python -m repro <command>``.

One table, :data:`COMMANDS`, is the whole description of the surface: a
subcommand is one row — its help line, the options it reads, and the
handler that runs it. :func:`main` adds one subparser per row, so
``python -m repro <command> --help`` is the flag reference for exactly that
command, and a flag a command never reads is a usage error rather than
silently ignored.

Conventions every handler keeps: times are reported rescaled to paper
magnitudes (see :class:`~repro.experiments.common.ExperimentConfig`);
``--json`` keeps stdout pure JSON (prose such as the ``--check`` verdicts
moves to stderr); exit status is 0 on success, 1 when a contract or gate
failed (``--check``, ``chaos``), 2 on a usage or configuration error. What
each command computes is documented where it lives — see the "CLI
reference" table in ``README.md`` for the page per command.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from functools import partial
from typing import Callable, NamedTuple

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentConfig, model_trace, run_matrix, run_mode

__all__ = ["main"]


# -- shared helpers -----------------------------------------------------------


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _config(args) -> ExperimentConfig:
    return ExperimentConfig(scale=args.scale, iterations=args.iterations)


def _report(to_json, render, as_json: bool) -> None:
    if as_json:
        print(json.dumps(to_json(), indent=2, sort_keys=True))
    else:
        print(render())


def _write_json(path: str | None, to_json, what: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(to_json(), fp, indent=2, sort_keys=True)
        print(f"wrote {what} -> {path}")


def _load_events(path: str):
    """Open a JSONL trace as a lazy, re-iterable :class:`EventStream`.

    The analyzers stream the file per pass instead of materializing the
    whole run (O(1) memory on multi-million-event traces). The first event
    is probed eagerly so a missing file or a non-JSONL file still fails
    right here with a friendly message rather than mid-analysis; a line
    that goes bad later raises the stream's own one-line
    :class:`ConfigurationError` mid-pass, which ``main`` prints the same way.
    """
    from repro.telemetry.export import EventStream

    stream = EventStream(path)
    try:
        for _ in stream:
            break
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    return stream


# -- the paper's tables and figures -------------------------------------------


def _table3_json(result, scale: int) -> dict:
    return {
        row.spec.key: {
            "batch": row.spec.batch,
            "measured_footprint_bytes": row.measured_footprint,
            "paper_footprint_bytes": row.spec.paper_footprint,
            "kernels": row.kernels,
        }
        for row in result.rows
    }


def _modes_json(matrix, scale: int, *, utilization: bool = False) -> dict:
    def entry(cell) -> dict:
        iteration = cell.iteration
        doc = {
            "seconds": round(iteration.seconds * scale, 2),
            "traffic_gb": {
                device: [round(v, 1) for v in cell.traffic_gb(device)]
                for device in iteration.traffic
            },
        }
        if utilization:
            doc["dram_utilization"] = round(cell.dram_utilization(), 4)
        return doc

    return {
        model: {mode: entry(cell) for mode, cell in by_mode.items()}
        for model, by_mode in matrix.items()
    }


def _fig3_json(matrix, scale: int) -> dict:
    from repro.experiments.fig3_heap import peak_gb

    ((model, by_mode),) = matrix.items()
    return {
        "model": model,
        "peak_heap_gb": {
            mode: round(peak_gb(cell), 1) for mode, cell in by_mode.items()
        },
        "gc_collections_2lm0": by_mode["2LM:0"].iteration.gc_collections,
    }


def _fig4_json(matrix, scale: int) -> dict:
    ((_, by_mode),) = matrix.items()
    return {
        mode: {
            rate: round(getattr(cell.iteration.cache, rate), 4)
            for rate in ("hit_rate", "clean_miss_rate", "dirty_miss_rate")
        }
        for mode, cell in by_mode.items()
    }


def _fig7_json(result, scale: int) -> dict:
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


def _ext_json(result, scale: int) -> dict:
    def seconds(by_label):
        return {
            label: round(it.seconds * scale, 1) for label, it in by_label.items()
        }

    return {
        "platforms_seconds": seconds(result.platforms),
        "async_seconds": result.async_movement,
        "numa_seconds": seconds(result.numa),
    }


# name -> (module under repro.experiments, help line, compact --json summary;
# the full data stays in Python).
_fig6_json = partial(_modes_json, utilization=True)
EXPERIMENTS = {
    "table3": ("table3_models", "Table III: model shapes & footprints", _table3_json),
    "fig2": ("fig2_runtime", "runtime across the six operating modes", _modes_json),
    "fig3": ("fig3_heap", "heap occupancy over time, GC vs eager retire", _fig3_json),
    "fig4": ("fig4_cachestats", "DRAM-cache hit/miss/writeback rates", _fig4_json),
    "fig5": ("fig5_traffic", "GB moved per device and direction", _modes_json),
    "fig6": ("fig6_utilization", "DRAM bus utilisation over time", _fig6_json),
    "fig7": ("fig7_sensitivity", "DRAM-capacity sensitivity sweep", _fig7_json),
    "ext": ("extensions", "Section VI extensions (CXL, async, NUMA)", _ext_json),
}


def _experiments(names, args) -> int:
    config = _config(args)
    modules = {
        name: importlib.import_module(f"repro.experiments.{EXPERIMENTS[name][0]}")
        for name in names
    }
    # Figures 2-6 are views of one evaluation matrix: the union of the
    # requested views' cells is simulated once and each view reads its own.
    views = [module for module in modules.values() if hasattr(module, "MODES")]
    matrix = run_matrix(
        config,
        tuple(dict.fromkeys(model for view in views for model in view.MODELS)),
        tuple(dict.fromkeys(mode for view in views for mode in view.MODES)),
    )
    summaries = {}
    for name, module in modules.items():
        if module in views:
            result = {
                model: {mode: matrix[model][mode] for mode in module.MODES}
                for model in module.MODELS
            }
        else:
            # Table III is a property of the model zoo, not of a run.
            result = module.run() if name == "table3" else module.run(config)
        if args.json:
            summaries[name] = EXPERIMENTS[name][2](result, config.scale)
        else:
            print(module.render(result), end="\n\n")
    if args.json:
        # One document keyed by experiment name, also for `all`.
        print(json.dumps(summaries, indent=2), end="\n\n")
    return 0


# -- trace / profile / explain / diff / monitor --------------------------------


def _trace(args) -> int:
    from repro.workloads.serialize import save_trace

    trace = model_trace(args.model, ExperimentConfig(scale=args.scale))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            save_trace(trace, fp)
        print(
            f"wrote {trace.name}: {len(trace.events)} events, "
            f"{len(trace.tensors)} tensors -> {args.out}"
        )
    else:
        save_trace(trace, sys.stdout)
    return 0


def _profile(args) -> int:
    from repro.experiments import profile as profile_mod
    from repro.telemetry.export import write_jsonl

    result = profile_mod.run_profile(args.model, args.mode, _config(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(result.chrome_trace(), fp)
        print(f"wrote Chrome trace ({len(result.events)} events) -> {args.out}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fp:
            write_jsonl(result.events, fp)
        print(f"wrote event stream -> {args.jsonl}")
    print(profile_mod.render(result))
    return 0


def _render_streams(explanations, attribution) -> str:
    lines = [exp.render() + "\n" for exp in explanations]
    lines.append(
        f"stall attribution: {attribution['attributed_fraction']:.1%} of "
        f"{attribution['total_stall_seconds']:.6f} s of movement-wait "
        f"attributed to (stream, object) pairs"
    )
    lines.extend(
        f"  {pair['stream'] or '<unattributed>'}: "
        f"{pair['object']} {pair['seconds']:.6f} s"
        for pair in attribution["pairs"][:8]
    )
    return "\n".join(lines)


def _explain(args) -> int:
    from repro.telemetry.diff import explain_run, stall_attribution, streams_in

    if len(args.paths) != 1:
        return _fail(
            "explain takes exactly one trace path "
            "(write one with: profile --model ... --jsonl run.jsonl)"
        )
    path = args.paths[0]
    events = _load_events(path)
    # A multi-stream trace (a co-located run) gets one report per tenant
    # stream plus the cross-tenant stall attribution; a single-stream trace
    # keeps the historical single-report output.
    streams = streams_in(events)
    if streams:
        explanations = [
            explain_run(
                events, label=path, ping_pong_window=args.window, stream=name
            )
            for name in streams
        ]
        attribution = stall_attribution(events)

        def to_json() -> dict:
            return {
                "streams": {
                    name: exp.to_json() for name, exp in zip(streams, explanations)
                },
                "stall_attribution": attribution,
            }

        render = partial(_render_streams, explanations, attribution)
    else:
        explanation = explain_run(events, label=path, ping_pong_window=args.window)
        to_json, render = explanation.to_json, explanation.render
    _write_json(args.out, to_json, "explanation")
    _report(to_json, render, args.json)
    return 0


def _diff(args) -> int:
    from repro.telemetry.diff import diff_runs

    if len(args.paths) != 2:
        return _fail(
            "diff takes exactly two trace paths (baseline first): "
            "python -m repro diff a.jsonl b.jsonl"
        )
    run_diff = diff_runs(
        *(_load_events(path) for path in args.paths),
        label_a=args.paths[0],
        label_b=args.paths[1],
        ping_pong_window=args.window,
    )
    _write_json(args.out, run_diff.to_json, "diff report")
    _report(run_diff.to_json, run_diff.render, args.json)
    return 0


def _monitor(args) -> int:
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

    if args.interval <= 0:
        return _fail("--interval must be positive")
    monitor_cfg = MonitorConfig(window_seconds=args.interval, dump_dir=args.dump_dir)
    events_for_trace = []
    if args.paths:
        if len(args.paths) != 1 or args.model:
            return _fail(
                "monitor takes one recorded trace path (from 'profile "
                "--jsonl') or --model to run live, not both"
            )
        label = args.paths[0]
        events_for_trace = _load_events(label)
        monitor = RuntimeMonitor(monitor_cfg)
        monitor.observe_all(events_for_trace)
        monitor.finish()
    elif args.model:
        run_config = replace(_config(args), monitor=True, monitor_config=monitor_cfg)
        monitor = run_mode(args.model, args.mode, run_config).monitor
        label = f"{args.model} under {args.mode}"
    else:
        return _fail(
            "monitor needs a recorded trace path or --model "
            "(e.g. python -m repro monitor --model tiny)"
        )
    if args.out:
        doc = to_chrome_trace(events_for_trace, timelines=monitor.counter_timelines())
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(doc, fp)
        # With --json, stdout carries exactly the snapshot document.
        info = sys.stderr if args.json else sys.stdout
        print(f"wrote counter trace -> {args.out}", file=info)
    snapshot = monitor.snapshot(recent_windows=8)
    _report(
        snapshot.to_json,
        lambda: f"runtime monitor: {label}\n{snapshot.render()}",
        args.json,
    )
    return 0


# -- colo / serve / taxonomy: run, report, --check ------------------------------


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


def _checked(args, module, run, gate, fail_prefix: str) -> int:
    """Run, report, and under ``--check`` rerun and apply ``gate``.

    ``gate(result)`` returns the failed-gate messages and the line printed
    when there are none.
    """
    result = run()
    _report(result.to_json, lambda: module.render(result), args.json)
    if not args.check:
        return 0
    problems, ok_line = gate(result)
    return _check_contract(result, run, problems, ok_line, fail_prefix, args.json)


def _colo(args) -> int:
    from repro.experiments import colo as colo_mod

    def gate(result):
        # The co-run must also be explainable: at least 90% of movement-wait
        # stall time attributed to a specific (tenant, object) pair.
        fraction = result.attribution.get("attributed_fraction", 0.0)
        if fraction < 0.9:
            return [f"only {fraction:.1%} of stall time attributed (need >= 90%)"], ""
        return [], f"attribution: {fraction:.1%} of stall time attributed"

    run = partial(
        colo_mod.run_colo, _csv(args.tenants), _config(args), mode_name=args.mode
    )
    return _checked(args, colo_mod, run, gate, "ATTRIBUTION FAIL")


def _serve(args) -> int:
    from repro.experiments import serving as serving_mod

    rates = None
    if args.rates:
        try:
            rates = tuple(float(rate) for rate in _csv(args.rates))
        except ValueError:
            return _fail(
                f"--rates must be comma-separated numbers, got {args.rates!r}"
            )
    # --check pins the documented 3-point sweep (unless --rates overrides
    # it): one point below saturation and two past it, so the monotonicity
    # gates have load points on both sides of the knee.
    multipliers = (
        serving_mod.CHECK_MULTIPLIERS
        if args.check and rates is None
        else serving_mod.ServingConfig.rate_multipliers
    )
    serving_cfg = serving_mod.ServingConfig(
        slots=args.slots,
        requests=args.requests,
        seed=args.seed,
        rates=rates,
        rate_multipliers=multipliers,
    )
    run = partial(
        serving_mod.run_serving, _config(args), serving_cfg, mode_name=args.mode
    )

    def gate(result):
        # The sweep must also be shaped like a saturating system.
        return serving_mod.check_serving(result), (
            "sweep shape: normalized p99 non-decreasing, goodput "
            "non-increasing past saturation"
        )

    return _checked(args, serving_mod, run, gate, "SWEEP-SHAPE FAIL")


def _taxonomy(args) -> int:
    from repro.experiments import taxonomy as taxonomy_mod

    workloads = taxonomy_mod.DEFAULT_WORKLOADS
    if args.workloads:
        workloads = _csv(args.workloads)
    run = partial(
        taxonomy_mod.run_taxonomy,
        _config(args),
        workloads=workloads,
        modes=_csv(args.modes) if args.modes else None,
    )

    def gate(result):
        # The matrix must also be correctly classified: fractions sum to 1,
        # >=95% of reference-cell time attributed, pinned verdicts hold, and
        # the monitor's rollups agree with the full trace.
        return taxonomy_mod.check_taxonomy(result), (
            "classification: fractions exact, verdicts pinned, "
            "monitor rollups agree with full trace"
        )

    return _checked(args, taxonomy_mod, run, gate, "CLASSIFICATION FAIL")


# -- snapshot / restore ---------------------------------------------------------


def _paused_or_done(result, out_path, need_out: str, done: str) -> int:
    """Save ``result`` if the run paused again, else print its final digest
    (the same digest from `snapshot` and `restore`, so the pair scripts a
    round-trip check)."""
    from repro.runtime.elastic import (
        RuntimeSnapshot,
        digest_mode_result,
        save_snapshot,
    )

    if not isinstance(result, RuntimeSnapshot):
        print(f"{done}; digest {digest_mode_result(result)}")
        return 0
    if not out_path:
        return _fail(need_out)
    save_snapshot(result, out_path)
    print(
        f"paused {result.label} at t={result.virtual_time:.6f} "
        f"after {result.kernels_done} kernels -> {out_path}"
    )
    return 0


def _snapshot(args) -> int:
    from repro.runtime.elastic import checkpoint_model_mode

    pause_after = 8 if args.pause_after is None else args.pause_after
    return _paused_or_done(
        checkpoint_model_mode(
            args.model, args.mode, _config(args), pause_after=pause_after
        ),
        args.out,
        "snapshot requires --out to name the snapshot file",
        f"run completed before kernel {pause_after}",
    )


def _restore(args) -> int:
    from repro.runtime.elastic import load_snapshot, resume_snapshot

    if len(args.paths) != 1:
        return _fail(
            "restore takes exactly one snapshot path (written by 'snapshot "
            "--out')"
        )
    snapshot = load_snapshot(args.paths[0])
    return _paused_or_done(
        resume_snapshot(snapshot, pause_after=args.pause_after),
        args.out,
        "re-pausing (--pause-after) requires --out for the chained snapshot",
        f"resumed {snapshot.label} from kernel {snapshot.kernels_done}",
    )


# -- chaos ----------------------------------------------------------------------


def _bisect(args) -> int:
    from repro.faults.chaos import bisect_plan
    from repro.faults.plan import FAULT_PLANS

    if args.plan not in FAULT_PLANS:
        return _fail(
            f"--bisect needs a specific fault plan, not {args.plan!r}; "
            f"known: {', '.join(FAULT_PLANS)}"
        )
    result = bisect_plan(args.plan)
    if args.json:
        doc = {
            "plan": result.plan.name,
            "error": result.error,
            "failing_step": result.failing_step,
            "fired_total": result.fired_total,
            "probes": result.probes,
            "window": [fault.to_json() for fault in result.window],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(result.render())
    # Exit 0 when the plan passed (nothing to narrow) or the window was
    # isolated; 1 only when a failure resisted narrowing.
    return 0 if (not result.error or result.ok) else 1


_OUTCOME_FIELDS = (
    "ok", "completed", "error", "typed_abort", "digests_match",
    "invariants_clean", "faults_fired", "recoveries", "copy_retries",
    "strikes", "quarantined", "flight_record",
)


def _chaos(args) -> int:
    import tempfile

    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FAULT_PLANS

    if args.bisect:
        return _bisect(args)
    if args.plan == "all":
        names = tuple(FAULT_PLANS)
    elif args.plan in FAULT_PLANS:
        names = (args.plan,)
    else:
        return _fail(
            f"unknown fault plan {args.plan!r}; known: "
            f"{', '.join(FAULT_PLANS)} (or 'all')"
        )
    # Flight-recorder dumps outlive the process so a failing scenario's
    # black box can be inspected (or attached to a CI artifact): default to
    # a fresh temp directory rather than discarding the recordings.
    dump_dir = args.dump_dir
    if dump_dir is None:
        dump_dir = tempfile.mkdtemp(prefix="repro-chaos-flight-")
    reports = [run_chaos(name, dump_dir=dump_dir) for name in names]
    if args.json:
        doc = {
            report.plan.name: {
                "ok": report.ok,
                "scenarios": {
                    o.scenario: {f: getattr(o, f) for f in _OUTCOME_FIELDS}
                    for o in report.outcomes
                },
            }
            for report in reports
        }
        print(json.dumps(doc, indent=2))
    else:
        for report in reports:
            print(report.render())
            print()
        failed = [r.plan.name for r in reports if not r.ok]
        print(
            f"FAILED plans: {', '.join(failed)}"
            if failed
            else f"all {len(reports)} plan(s) honoured the robustness contract"
        )
    return 0 if all(report.ok for report in reports) else 1


# -- the table ------------------------------------------------------------------


def _opt(*flags: str, **kwargs):
    """One ``add_argument`` call, as data."""
    return flags, kwargs


def _model(required: bool):
    return _opt("--model", required=required, help="model key (see table3)")


def _out(what: str):
    return _opt("--out", help=f"write {what} to this path")


SCALE = _opt("--scale", type=int, default=16,
             help="divide workload and device sizes by this factor (default 16)")
ITERATIONS = _opt("--iterations", type=int, default=2,
                  help="training iterations per run; the last is reported "
                  "(default 2)")
JSON = _opt("--json", action="store_true",
            help="emit machine-readable JSON on stdout instead of the text report")
MODE = _opt("--mode", default="CA:LM", help="operating mode (default CA:LM)")
CHECK = _opt("--check", action="store_true",
             help="also verify determinism across two runs plus the command's "
             "result contract (exit status 1 on failure)")
WINDOW = _opt("--window", type=int, default=8,
              help="kernels within which an evict-then-refetch counts as a "
              "ping-pong (default 8)")
DUMP_DIR = _opt("--dump-dir",
                help="directory for flight-recorder dumps (chaos defaults to a "
                "fresh temp directory)")
PAUSE_AFTER = _opt("--pause-after", type=int,
                   help="pause after this many completed kernels (snapshot "
                   "default 8; restore default runs to completion)")
PATHS = _opt("paths", nargs="*",
             help="recorded inputs: JSONL event streams written by the profile "
             "command (explain one, diff two with the baseline first, monitor "
             "at most one) or, for restore, one snapshot file")


class Command(NamedTuple):
    """One subcommand: everything argparse and ``--help`` know about it."""

    help: str
    options: tuple
    run: Callable[[argparse.Namespace], int]


COMMANDS: dict[str, Command] = {
    **{
        name: Command(line, (SCALE, ITERATIONS, JSON), partial(_experiments, (name,)))
        for name, (_, line, _) in EXPERIMENTS.items()
    },
    "all": Command(
        "every table and figure above, one run",
        (SCALE, ITERATIONS, JSON),
        partial(_experiments, tuple(EXPERIMENTS)),
    ),
    "trace": Command(
        "export a model's kernel trace as versioned JSON",
        (_model(True), SCALE, _out("the kernel trace (default: stdout)")),
        _trace,
    ),
    "profile": Command(
        "traced run + 'top movers by cause' movement report",
        (_model(True), MODE, SCALE, ITERATIONS,
         _out("a Perfetto-loadable Chrome trace"),
         _opt("--jsonl", help="also write the raw event stream here")),
        _profile,
    ),
    "explain": Command(
        "object-lifetime ledger report from one recorded event stream",
        (PATHS, WINDOW, _out("the report JSON"), JSON),
        _explain,
    ),
    "diff": Command(
        "attribute the virtual-time delta between two recorded runs",
        (PATHS, WINDOW, _out("the report JSON"), JSON),
        _diff,
    ),
    "monitor": Command(
        "fold a run (recorded or live) into the runtime-monitor dashboard",
        (PATHS, _model(False), MODE, SCALE, ITERATIONS,
         _opt("--interval", type=float, default=0.25,
              help="rollup window length in virtual seconds (default 0.25)"),
         _out("the counter tracks as a Chrome trace"), DUMP_DIR, JSON),
        _monitor,
    ),
    "chaos": Command(
        "run the workloads under seeded fault plans (exit 1 on a violation)",
        (_opt("--plan", default="all",
              help="fault plan name, or 'all' (default all)"),
         _opt("--bisect", action="store_true",
              help="binary-search the named plan's fired faults down to the "
              "narrowest window that still reproduces the failure"),
         DUMP_DIR, JSON),
        _chaos,
    ),
    "colo": Command(
        "co-run tenant workloads on one shared memory system",
        (_opt("--tenants", default="cnn,dlrm",
              help="comma-separated tenant workloads to co-run (default "
              "cnn,dlrm; known: cnn, dlrm, stream)"),
         MODE, SCALE, ITERATIONS, CHECK, JSON),
        _colo,
    ),
    "snapshot": Command(
        "pause a run at a kernel boundary and save the runtime state",
        (_model(True), MODE, SCALE, ITERATIONS, PAUSE_AFTER, _out("the snapshot")),
        _snapshot,
    ),
    "restore": Command(
        "resume a saved snapshot and print the final digest",
        (PATHS, PAUSE_AFTER, _out("the chained snapshot when re-pausing")),
        _restore,
    ),
    "serve": Command(
        "open-loop request-load sweep over the shared runtime",
        (_opt("--rates",
              help="comma-separated offered loads in requests/s (default: "
              "multiples of the measured saturation rate)"),
         _opt("--requests", type=int, default=60,
              help="arrivals per rate point (default 60)"),
         _opt("--slots", type=int, default=4,
              help="concurrent request slots, as in llama.cpp's parallel "
              "example (default 4)"),
         _opt("--seed", type=int, default=7,
              help="arrival-process seed (default 7)"),
         MODE, SCALE, ITERATIONS, CHECK, JSON),
        _serve,
    ),
    "taxonomy": Command(
        "classify the movement-signature workloads into bottleneck classes",
        (_opt("--workloads",
              help="comma-separated movement-signature workloads (default "
              "pointer-chase,scan,tiny-objects,stream-compute)"),
         _opt("--modes",
              help="comma-separated operating modes to sweep (default: all "
              "six; must include the CA:LM reference mode)"),
         SCALE, ITERATIONS, CHECK, JSON),
        _taxonomy,
    ),
}

# Every valid first positional argument, in ``--help`` order.
# (``tools/check_docs.py`` holds the docs to COMMANDS, flags included.)
SUBCOMMANDS = tuple(COMMANDS)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachedarrays",
        description="Regenerate the CachedArrays (IPDPS 2024) tables and "
        "figures, and drive the runtime's tools. `<command> --help` lists "
        "that command's options.",
    )
    subparsers = parser.add_subparsers(
        dest="command", metavar="<command>", required=True
    )
    for name, command in COMMANDS.items():
        # No prefix matching: `taxonomy --mode` must not resolve to --modes.
        sub = subparsers.add_parser(
            name, help=command.help, description=command.help, allow_abbrev=False
        )
        for flags, kwargs in command.options:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(run=command.run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigurationError, OSError) as exc:
        # OSError: a snapshot that cannot be read, an --out/--jsonl/--dump-dir
        # path that cannot be written.
        return _fail(str(exc))


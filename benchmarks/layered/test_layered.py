"""Self-test of the layered benchmark (not part of tier-1; run by path):

    PYTHONPATH=src python -m pytest benchmarks/layered/test_layered.py
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import run
import spans

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    fns = {}

    def leaf():
        clock.now += 2

    def mid():
        clock.now += 1
        fns["leaf"]()
        clock.now += 3
        fns["leaf"]()

    def top():
        clock.now += 5
        fns["mid"]()
        clock.now += 7

    fns["leaf"] = recorder.wrap(leaf, "low", "leaf")
    fns["mid"] = recorder.wrap(mid, "low", "mid")
    fns["top"] = recorder.wrap(top, "high", "top")
    fns["top"]()
    clock.now += 100  # outside every span
    fns["leaf"]()

    assert recorder.rows[("high", "top")] == [1, 20.0, 12.0, 0]
    assert recorder.rows[("low", "mid")] == [1, 8.0, 4.0, 0]
    assert recorder.rows[("low", "leaf")] == [3, 6.0, 6.0, 0]
    assert recorder.by_layer() == {"low": [4, 14.0, 10.0, 0], "high": [1, 20.0, 12.0, 0]}
    # Self times and the top-level spans account for the same seconds.
    assert recorder.root_seconds == 22.0
    assert sum(row[spans.SELF] for row in recorder.rows.values()) == 22.0
    recorder.reset()
    assert recorder.root_seconds == 0.0 and recorder.rows[("low", "leaf")][0] == 0


def test_a_raising_call_still_closes_its_span():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)

    def boom():
        clock.now += 4
        raise KeyError("x")

    def caller():
        clock.now += 1
        try:
            wrapped_boom()
        except KeyError:
            clock.now += 1

    wrapped_boom = recorder.wrap(boom, "l", "boom")
    recorder.wrap(caller, "l", "caller")()
    assert recorder.rows[("l", "boom")] == [1, 4.0, 4.0, 1]
    assert recorder.rows[("l", "caller")] == [1, 6.0, 2.0, 0]


def test_a_generator_gets_one_span_per_resume():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)

    def stream():
        clock.now += 1
        yield "a"
        clock.now += 2
        yield "b"
        clock.now += 4
        return "done"

    def drive(gen):
        clock.now += 10
        returned = []

        def relay():  # what the serving driver does: ``yield from`` the proxy
            returned.append((yield from gen))

        return list(relay()), returned[0]

    wrapped = recorder.wrap(stream, "gen", "stream")
    seen, result = recorder.wrap(drive, "drv", "drive")(wrapped())
    assert (seen, result) == (["a", "b"], "done")
    # Three resumes (the last one raised StopIteration), all children of drive.
    assert recorder.rows[("gen", "stream")] == [3, 7.0, 7.0, 1]
    assert recorder.rows[("drv", "drive")] == [1, 17.0, 10.0, 0]
    closed = wrapped()
    next(closed)
    closed.close()  # reaches the real generator


def _bindings():
    """Every attribute install() may replace, with its current value."""
    missing: list[str] = []
    found = {}
    for _, owner, attr, _ in spans.resolve_targets(layers.TARGETS, missing):
        found[(id(owner), attr)] = (owner, attr, vars(owner)[attr])
    assert missing == []
    for module in spans._program_modules("repro"):
        for name, value in vars(module).items():
            if callable(value):
                found.setdefault((id(module), name), (module, name, value))
    return found.values()


def test_install_then_uninstall_restores_every_attribute():
    before = list(_bindings())
    recorder = spans.SpanRecorder()
    assert recorder.install(layers.TARGETS) == []
    try:
        changed = [1 for owner, attr, value in before if vars(owner)[attr] is not value]
        assert len(changed) >= len(recorder.rows)
        from repro.runtime import executor
        from repro.runtime.kernel import kernel_timing

        # The by-name import in the hot module is what got replaced.
        assert executor.kernel_timing.__wrapped__ is kernel_timing.__wrapped__
    finally:
        recorder.uninstall()
    for owner, attr, value in before:
        assert vars(owner)[attr] is value, (owner, attr)


def test_unresolvable_targets_are_reported_not_fatal():
    recorder = spans.SpanRecorder()
    try:
        missing = recorder.install((
            ("x", "repro.no_such_module", "f"),
            ("x", "repro.sim.clock", "SimClock.no_such_method"),
            ("x", "repro.sim.clock", "NoSuchClass.advance"),
        ))
    finally:
        recorder.uninstall()
    assert len(missing) == 3 and not recorder.rows


def _smoke(workload: str, trace: int, tmp_path: Path) -> tuple[dict, dict]:
    out = tmp_path / f"{workload}.{trace}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         "7", "--trace", str(trace), "--smoke", "--json", str(out)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("layered")
    return {trace: _smoke("tiny-objects", trace, tmp) for trace in (0, 1)}


def test_traced_and_untraced_runs_simulate_the_same_thing(smoke_runs):
    (_, untraced), (_, traced) = smoke_runs[0], smoke_runs[1]
    assert untraced["sim_digest"] == traced["sim_digest"]
    assert untraced["sim_seconds"] == traced["sim_seconds"]
    assert untraced["failed"] == traced["failed"] == 0
    assert traced["unresolved_targets"] == [] and traced["calls_stable"]
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert layer_self + metrics["harness.other_s"] == pytest.approx(
        metrics["harness.traced_wall_s"]
    )


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_exactly_the_ones_benchmark_json_lists(
    smoke_runs, trace, listed
):
    last_line, _ = smoke_runs[trace]
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] is True and last_line["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in last_line["metrics"].items()}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in emitted)
    assert emitted == {m["name"]: m["unit"] for m in SPEC[listed]}


def test_workload_names_agree_everywhere():
    import workloads

    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/layered"]


def test_compare_flags_a_regression_and_a_changed_simulation(smoke_runs, capsys):
    base = {"tiny-objects": {"untraced": smoke_runs[0][1], "traced": smoke_runs[1][1]}}
    assert compare.report(base, copy.deepcopy(base)) == 0
    slower = copy.deepcopy(base)
    slower["tiny-objects"]["untraced"]["metrics"]["norm_wall"]["value"] *= 1.2
    assert compare.report(base, slower) == 1
    assert compare.report(slower, base) == 0  # an improvement is not a failure
    drifted = copy.deepcopy(base)
    drifted["tiny-objects"]["traced"]["metrics"]["policies.evictions"]["value"] += 1
    assert compare.report(base, drifted) == 1
    assert "policies.evictions" in capsys.readouterr().out

"""CLI entry point."""

import pytest

from repro.cli import main


def test_table3(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out and "ResNet 200" in out


def test_fig4_with_scale(capsys):
    assert main(["fig4", "--scale", "256", "--iterations", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out and "dirty miss" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_help_lists_experiments(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    for name in ("table3", "fig2", "fig7"):
        assert name in out


def test_json_output(capsys):
    import json

    assert main(["fig4", "--scale", "256", "--iterations", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "fig4" in data
    assert 0 < data["fig4"]["2LM:M"]["hit_rate"] <= 1


def test_table3_json(capsys):
    import json

    assert main(["table3", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "resnet200-large" in data["table3"]


def test_trace_export_roundtrip(tmp_path, capsys):
    from repro.workloads.serialize import load_trace

    out = tmp_path / "trace.json"
    assert main(
        ["trace", "--model", "vgg116-small", "--scale", "64", "--out", str(out)]
    ) == 0
    with open(out, encoding="utf-8") as fp:
        trace = load_trace(fp)
    assert len(trace.events) > 100


def test_trace_requires_model():
    with pytest.raises(SystemExit):
        main(["trace"])


def test_trace_unknown_model(capsys):
    assert main(["trace", "--model", "alexnet"]) == 2


def test_profile_smoke_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    assert main(
        [
            "profile", "--model", "tiny", "--scale", "256",
            "--iterations", "1", "--out", str(out), "--jsonl", str(jsonl),
        ]
    ) == 0
    report = capsys.readouterr().out
    assert "movement profile: tiny" in report
    assert "top movers by cause" in report
    with open(out, encoding="utf-8") as fp:
        doc = json.load(fp)
    assert doc["traceEvents"]
    for record in doc["traceEvents"]:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in record
    with open(jsonl, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    # v2 streams open with a schema header, then one event per line.
    assert lines
    header = json.loads(lines[0])
    assert header["schema"] == "repro.trace"
    assert header["schema_version"] >= 2
    assert lines[1:] and all(json.loads(line)["kind"] for line in lines[1:])


def test_profile_unknown_model_returns_2(capsys):
    assert main(["profile", "--model", "nosuch"]) == 2
    assert "unknown model" in capsys.readouterr().err


def test_profile_requires_model():
    with pytest.raises(SystemExit):
        main(["profile"])


def test_colo_text_report(capsys):
    assert main(["colo", "--scale", "4096", "--iterations", "1"]) == 0
    out = capsys.readouterr().out
    assert "Co-located tenants" in out
    assert "cnn" in out and "dlrm" in out
    assert "fairness" in out
    assert "digest" in out


def test_colo_json_report(capsys):
    import json

    assert main(["colo", "--scale", "4096", "--iterations", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["tenants"]) == {"cnn", "dlrm"}
    assert payload["attributed_stall_fraction"] >= 0.0
    assert len(payload["digest"]) == 64


def test_colo_unknown_tenant_returns_2(capsys):
    assert main(["colo", "--tenants", "cnn,bogus", "--scale", "4096"]) == 2
    assert "unknown workload" in capsys.readouterr().err


@pytest.fixture()
def tiny_trace_jsonl(tmp_path, capsys):
    """A recorded tiny-model event stream (shared monitor-test input)."""
    path = tmp_path / "run.jsonl"
    assert main(
        [
            "profile", "--model", "tiny", "--scale", "256",
            "--iterations", "1", "--jsonl", str(path),
        ]
    ) == 0
    capsys.readouterr()  # drop the profile report
    return path


def test_monitor_replays_a_recorded_stream(tiny_trace_jsonl, capsys):
    assert main(["monitor", str(tiny_trace_jsonl)]) == 0
    out = capsys.readouterr().out
    assert "runtime monitor:" in out
    assert "health:" in out
    assert "movement:" in out
    assert "kernel_seconds:" in out


def test_monitor_runs_a_model_live_with_json_snapshot(tmp_path, capsys):
    import json

    counters = tmp_path / "counters.json"
    assert main(
        [
            "monitor", "--model", "tiny", "--scale", "256",
            "--iterations", "1", "--json", "--out", str(counters),
        ]
    ) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["events_seen"] > 0
    assert snapshot["totals"]["copies"] > 0
    assert "DRAM" in snapshot["occupancy"]
    assert snapshot["occupancy"]["DRAM"]["capacity"] > 0
    with open(counters, encoding="utf-8") as fp:
        doc = json.load(fp)
    names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "C"}
    assert "monitor.copy_inflight" in names
    assert any(name.startswith("monitor.occupancy.") for name in names)


def test_monitor_replay_and_live_agree(tiny_trace_jsonl, capsys):
    import json

    assert main(["monitor", str(tiny_trace_jsonl), "--json"]) == 0
    replayed = json.loads(capsys.readouterr().out)
    assert main(
        [
            "monitor", "--model", "tiny", "--scale", "256",
            "--iterations", "1", "--json",
        ]
    ) == 0
    live = json.loads(capsys.readouterr().out)
    assert replayed["totals"] == live["totals"]
    for device, occ in replayed["occupancy"].items():
        assert occ["used"] == live["occupancy"][device]["used"]


def test_monitor_rejects_conflicting_or_missing_sources(tmp_path, capsys):
    assert main(["monitor"]) == 2
    assert "recorded trace path or --model" in capsys.readouterr().err
    trace = tmp_path / "x.jsonl"
    trace.write_text('{"schema":"repro.trace","schema_version":3}\n')
    assert main(["monitor", str(trace), "--model", "tiny"]) == 2
    assert "not both" in capsys.readouterr().err
    assert main(["monitor", "--model", "tiny", "--interval", "0"]) == 2
    assert "--interval" in capsys.readouterr().err


def test_monitor_missing_file_returns_2(capsys):
    assert main(["monitor", "/nonexistent/run.jsonl"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.chaos
def test_chaos_json_includes_flight_records(tmp_path, capsys):
    import json

    assert main(
        [
            "chaos", "--plan", "copy-exhaust", "--json",
            "--dump-dir", str(tmp_path),
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    scenarios = payload["copy-exhaust"]["scenarios"]
    for name, scenario in scenarios.items():
        assert scenario["flight_record"].startswith(str(tmp_path)), name


def test_explain_renders_per_stream_reports(tmp_path, capsys):
    import io
    import json

    from repro.telemetry.export import write_jsonl
    from repro.telemetry.trace import TraceEvent

    events = []
    for stream, kernel in (("a", "ka"), ("b", "kb")):
        events.append(
            TraceEvent(0.0, "kernel_start", {"kernel": kernel}, stream=stream)
        )
        events.append(
            TraceEvent(
                1.0,
                "kernel_end",
                {"kernel": kernel, "seconds": 1.0, "compute": 1.0, "memory": 0.0},
                stream=stream,
            )
        )
    events.append(
        TraceEvent(
            1.5,
            "stall",
            {"kernel": "ka", "seconds": 0.5, "objects": ["b/x"],
             "charged": [0.5]},
            stream="a",
        )
    )
    path = tmp_path / "multi.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        write_jsonl(events, fp)
    assert main(["explain", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["streams"]) == {"a", "b"}
    attribution = payload["stall_attribution"]
    assert attribution["attributed_fraction"] == 1.0
    assert attribution["pairs"][0]["stream"] == "a"
    assert attribution["pairs"][0]["object"] == "b/x"


def test_serve_text_report(capsys):
    assert main(["serve", "--scale", "1024", "--requests", "30"]) == 0
    out = capsys.readouterr().out
    assert "Serving load sweep" in out
    assert "saturation" in out
    assert "goodput" in out
    assert "digest" in out


def test_serve_check_passes_and_pins_the_documented_sweep(capsys):
    assert main(["serve", "--scale", "1024", "--check"]) == 0
    out = capsys.readouterr().out
    assert "digests match" in out
    assert "sweep shape" in out
    # --check swept the documented 3-point multipliers, not the default 4.
    assert out.count("\n") > 0
    table_rows = [
        line for line in out.splitlines()
        if line.strip() and line.lstrip()[0].isdigit()
    ]
    assert len(table_rows) == 3


def test_serve_json_report(capsys):
    import json

    assert main(
        ["serve", "--scale", "1024", "--requests", "30", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["digest"]) == 64
    assert len(payload["points"]) == 4  # default rate_multipliers
    assert payload["points"][0]["rate"] < payload["points"][-1]["rate"]


def test_serve_explicit_rates(capsys):
    import json

    assert main(
        [
            "serve", "--scale", "1024", "--requests", "20",
            "--rates", "0.5,2.0", "--json",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [p["rate"] for p in payload["points"]] == [0.5, 2.0]


def test_serve_bad_rates_returns_2(capsys):
    assert main(["serve", "--rates", "fast,faster"]) == 2
    assert "comma-separated numbers" in capsys.readouterr().err


def test_serve_bad_config_returns_2(capsys):
    assert main(["serve", "--scale", "1024", "--slots", "0"]) == 2
    assert "slot" in capsys.readouterr().err


def test_taxonomy_text_report(capsys):
    assert main(["taxonomy", "--scale", "2048"]) == 0
    out = capsys.readouterr().out
    assert "Bottleneck taxonomy" in out
    for workload in ("pointer-chase", "scan", "tiny-objects", "stream-compute"):
        assert workload in out
    assert "capacity-bound" in out
    assert "digest" in out


def test_taxonomy_check_passes(capsys):
    assert main(["taxonomy", "--scale", "2048", "--check"]) == 0
    out = capsys.readouterr().out
    assert "digests match" in out
    assert "verdicts pinned" in out


def test_taxonomy_json_report(capsys):
    import json

    assert main(
        [
            "taxonomy", "--scale", "2048", "--json",
            "--workloads", "pointer-chase", "--modes", "CA:0,CA:LM",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["modes"] == ["CA:0", "CA:LM"]
    entry = payload["workloads"]["pointer-chase"]
    assert entry["verdict"] == "latency"
    assert entry["monitor_verdict"] == "latency"
    assert len(payload["digest"]) == 64


def test_taxonomy_unknown_workload_returns_2(capsys):
    assert main(["taxonomy", "--workloads", "scan,bogus"]) == 2
    assert "unknown workloads" in capsys.readouterr().err


def test_taxonomy_modes_must_include_reference(capsys):
    assert main(["taxonomy", "--modes", "2LM:0,CA:0"]) == 2
    assert "reference mode" in capsys.readouterr().err


class _Digest:
    def __init__(self, value):
        self.value = value

    def digest(self):
        return self.value


@pytest.mark.parametrize("as_json", [False, True])
def test_check_contract_failure_lines_and_exit_code(capsys, as_json):
    """The failing arms of colo/serve/taxonomy ``--check``: one line per
    broken gate, prose on stderr under ``--json``, exit 1."""
    from repro.cli import _check_contract

    code = _check_contract(
        _Digest("aa"), lambda: _Digest("bb"), ["p99 fell", "goodput rose"],
        "shape ok", "SHAPE FAIL", as_json,
    )
    captured = capsys.readouterr()
    assert code == 1
    assert (captured.err if as_json else captured.out).splitlines() == [
        "DETERMINISM FAIL: digests differ across identical runs (aa vs bb)",
        "SHAPE FAIL: p99 fell",
        "SHAPE FAIL: goodput rose",
    ]
    assert (captured.out if as_json else captured.err) == ""
    # One broken gate is enough to fail; a clean run prints both ok lines.
    assert _check_contract(
        _Digest("aa"), lambda: _Digest("aa"), ["p99 fell"], "ok", "F", False
    ) == 1
    assert _check_contract(
        _Digest("aa"), lambda: _Digest("aa"), [], "shape ok", "F", False
    ) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "determinism: digests match across repeated runs",
        "shape ok",
    ]

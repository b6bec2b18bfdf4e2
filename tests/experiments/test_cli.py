"""CLI entry point."""

import json

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
    # The health snapshot is complete (formerly CI's monitor-smoke heredoc).
    assert snapshot["status"] in ("ok", "warning", "critical")
    assert snapshot["totals"]["kernels"] > 0
    assert snapshot["latencies"]["kernel_seconds"]["count"] > 0
    assert snapshot["recent_windows"], "no rollup windows closed"
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


def _write_multi_stream_jsonl(path):
    """A two-tenant event stream (nothing on the CLI records one)."""
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
    with open(path, "w", encoding="utf-8") as fp:
        write_jsonl(events, fp)


def test_explain_renders_per_stream_reports(tmp_path, capsys):
    import json

    path = tmp_path / "multi.jsonl"
    _write_multi_stream_jsonl(path)
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


# -- the surface, pinned ------------------------------------------------------
#
# (argv, exit status, sha256[:16] of stdout, of stderr; "" = nothing printed),
# recorded at the commit before `cli.py` became the COMMANDS table (PR 15's
# flat parser + if-chain). `{d}` is a scratch directory holding the inputs
# `cli_dir` records; it is spelled `{d}` again before hashing. Every valid
# invocation and every handler-level error arm must stay byte-identical;
# only argparse's own usage errors are free to change wording. (PR 18: the
# unknown-model arms of `trace` and `snapshot` now print the one resolver's
# message, the text `profile` and `monitor` always printed.)
_FAST = "--scale 256 --iterations 1"
_TINY = "--scale 2048 --iterations 1"
_SNAP = "--model resnet200-small --mode CA:LM --scale 2048"
PINNED = [
    ("table3", 0, "7a71a9f933f7b991", ""),
    ("table3 --json", 0, "66d40e47b2d3fe31", ""),
    (f"fig3 {_FAST}", 0, "6edf62ba08f38b02", ""),
    (f"fig3 {_FAST} --json", 0, "5a07161641fd3921", ""),
    (f"fig4 {_FAST}", 0, "80d05d73893f5375", ""),
    (f"fig4 {_FAST} --json", 0, "6d732368409fea6b", ""),
    ("ext --scale 2048 --iterations 1", 0, "304f333431a7e6c8", ""),
    ("ext --scale 2048 --iterations 1 --json", 0, "0b4f2c1cc22a28b1", ""),
    ("fig6 --scale 2048 --iterations 1 --json", 0, "609a66643a0f38c6", ""),
    ("fig7 --scale 2048 --iterations 1 --json", 0, "a9be2b5a8cc86600", ""),
    # Recorded at the parent of PR 22, where every figure ran its own cells.
    (f"fig2 {_TINY}", 0, "dec75925653145e6", ""),
    (f"fig2 {_TINY} --json", 0, "ce44159e422f3727", ""),
    (f"fig3 {_TINY}", 0, "6a65ce39b6656bb4", ""),
    (f"fig4 {_TINY} --json", 0, "50df2d19750b8d8b", ""),
    (f"fig5 {_TINY}", 0, "35b06943722f06cc", ""),
    (f"fig5 {_TINY} --json", 0, "caec236628335fce", ""),
    (f"fig6 {_TINY}", 0, "60173cf4991f3b8f", ""),
    (f"all {_TINY}", 0, "6229f0dd771363cb", ""),
    (f"all {_TINY} --json", 0, "bc65dddbf4d02898", ""),
    ("trace --model vgg116-small --scale 64", 0, "8e7bd3bc7ca7ea44", ""),
    ("trace --model vgg116-small --scale 64 --out {d}/t.json",
     0, "02d48945a194371c", ""),
    ("trace --model alexnet", 2, "", "5bd6e1e1ffdaff89"),
    (f"profile --model tiny {_FAST} --jsonl {{d}}/p.jsonl --out {{d}}/p.json",
     0, "d5063512eea84067", ""),
    ("profile --model nosuch", 2, "", "307a1486846013bd"),
    (f"profile --model tiny --mode bogus {_FAST}", 2, "", "966ac0aa74cfaa89"),
    ("explain {d}/lmp.jsonl", 0, "6901ae2c603b374c", ""),
    ("explain {d}/lmp.jsonl --json --window 4", 0, "af14bdf3789702bb", ""),
    ("explain {d}/lmp.jsonl --out {d}/explain.json", 0, "f370e1169dfd36f1", ""),
    ("explain {d}/multi.jsonl", 0, "f8d050a1d20b452e", ""),
    ("explain {d}/multi.jsonl --json --out {d}/multi.json", 0, "a230b19b26def675", ""),
    ("explain", 2, "", "57894af9f19e2c08"),
    ("explain {d}/nope.jsonl", 2, "", "6433c8e9c80c620d"),
    ("diff {d}/lm.jsonl {d}/lmp.jsonl", 0, "ab9fb0636ef8befa", ""),
    ("diff {d}/lm.jsonl {d}/lmp.jsonl --json", 0, "b3b733118f511714", ""),
    ("diff {d}/lm.jsonl {d}/lmp.jsonl --out {d}/diff.json", 0, "f40c3f51b25dcdbf", ""),
    ("diff {d}/lm.jsonl", 2, "", "e7063c52bccb4aa4"),
    ("diff {d}/lm.jsonl {d}/nope.jsonl", 2, "", "6433c8e9c80c620d"),
    ("monitor {d}/lm.jsonl", 0, "1a3c7a58ea103a9d", ""),
    ("monitor {d}/lm.jsonl --json --out {d}/counters.json",
     0, "0347f51825031663", "247d95ef9a07351a"),
    # Re-recorded once, when a monitored run that keeps no records began to
    # fold every event a traced one folds: `events=344` became `events=786`.
    (f"monitor --model tiny {_FAST} --mode CA:LMP --interval 0.5",
     0, "3af23adf08618fc2", ""),
    ("monitor {d}/lm.jsonl --model tiny", 2, "", "fe54b4475856651c"),
    # A trace that goes bad past its first line (see `_spoil`): one stderr
    # line naming the path, exit 2, from every command that reads it.
    ("monitor {d}/bad.jsonl", 2, "", "7107b2e674b60194"),
    ("explain {d}/bad.jsonl", 2, "", "7107b2e674b60194"),
    ("diff {d}/lm.jsonl {d}/bad.jsonl", 2, "", "7107b2e674b60194"),
    ("monitor {d}/nan.jsonl", 2, "", "6eea9f7070341d26"),
    ("explain {d}/nan.jsonl", 2, "", "6eea9f7070341d26"),
    ("diff {d}/lm.jsonl {d}/nan.jsonl", 2, "", "6eea9f7070341d26"),
    ("monitor", 2, "", "8346264d421a7a4d"),
    ("monitor --model tiny --interval 0", 2, "", "15ad426605b1f2b5"),
    ("monitor --model nosuch", 2, "", "307a1486846013bd"),
    ("colo --scale 4096 --iterations 1", 0, "6579e911150d48c3", ""),
    ("colo --tenants cnn,dlrm --scale 4096 --iterations 1 --check",
     0, "c4f6b07f74142af8", ""),
    ("colo --scale 4096 --iterations 1 --check --json",
     0, "aa4cc71fcee4b530", "5007899156a91542"),
    ("colo --tenants cnn,bogus --scale 4096", 2, "", "39d03d78abeaed47"),
    ("serve --scale 1024 --requests 20", 0, "d7818a447dd141f0", ""),
    ("serve --scale 1024 --requests 20 --check", 0, "0871077c87e0a475", ""),
    ("serve --scale 1024 --requests 20 --check --json",
     0, "1795331578390b4c", "ad0504bdef6e7f8a"),
    ("serve --scale 1024 --requests 20 --rates 0.5,2.0 --slots 2 --seed 3 --json",
     0, "a308ca3d3e3de837", ""),
    ("serve --rates fast,faster", 2, "", "13b108d94a77e7bc"),
    ("serve --scale 1024 --slots 0", 2, "", "28d810e6cda41519"),
    # Re-recorded once, when the report's "monitor tier agrees" became
    # "monitor rollups agree" (one monitor, read off the traced run); the
    # JSON report and its digest are unchanged.
    ("taxonomy --scale 2048 --workloads pointer-chase,scan --modes CA:0,CA:LM",
     0, "0c6cac2e3dfa8551", ""),
    ("taxonomy --scale 2048 --workloads pointer-chase,scan --check",
     0, "6e2a676c69b6155f", ""),
    ("taxonomy --scale 2048 --workloads pointer-chase --modes CA:0,CA:LM --check "
     "--json",
     0, "c5d5beb56784506c", "facffb75598d0135"),
    ("taxonomy --workloads scan,bogus", 2, "", "68a80e0258a673b9"),
    ("taxonomy --modes 2LM:0,CA:0", 2, "", "0ebde80d8049e1a9"),
    ("chaos --plan copy-flaky --dump-dir {d}/flight", 0, "34445998c707ab02", ""),
    ("chaos --plan copy-flaky --dump-dir {d}/flight-json --json",
     0, "e4b5d8a10d613a1c", ""),
    ("chaos --plan nosuch", 2, "", "130f91d7068407db"),
    ("chaos --bisect --plan bisect-demo", 0, "072a972431e24d15", ""),
    ("chaos --bisect --plan bisect-demo --json", 0, "c8036f80dd8f51b0", ""),
    ("chaos --bisect", 2, "", "fde39c1f55c13a98"),
    (f"snapshot {_SNAP} --pause-after 20 --out {{d}}/again.snap",
     0, "ae9553e91fe76434", ""),
    (f"snapshot {_SNAP} --out {{d}}/k8.snap", 0, "5304f0dd22fa251b", ""),
    (f"snapshot {_SNAP} --pause-after 20", 2, "", "851d72ef1e93a0a9"),
    (f"snapshot {_SNAP} --pause-after 999999", 0, "75da2b1cf4f3016f", ""),
    (f"snapshot {_SNAP} --pause-after -3", 2, "", "438d01083b54b759"),
    ("snapshot --model nosuch", 2, "", "307a1486846013bd"),
    ("restore {d}/run.snap", 0, "495c44c7dd4bf624", ""),
    ("restore {d}/run.snap --pause-after 30 --out {d}/chained.snap",
     0, "a31f87e98473027e", ""),
    ("restore {d}/run.snap --pause-after 30", 2, "", "cf4f0e11e92e5e30"),
    ("restore", 2, "", "ca0dea5123173039"),
    ("restore {d}/nope.snap", 2, "", "7ce3183c09df06b7"),
]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    """Two tiny event streams, a two-tenant stream and a paused snapshot."""
    import contextlib
    import io

    d = tmp_path_factory.mktemp("cli")
    _write_multi_stream_jsonl(d / "multi.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        for name, mode in (("lm", "CA:LM"), ("lmp", "CA:LMP")):
            assert main(
                f"profile --model tiny {_FAST} --mode {mode} "
                f"--jsonl {d}/{name}.jsonl".split()
            ) == 0
        assert main(
            f"snapshot {_SNAP} --pause-after 20 --out {d}/run.snap".split()
        ) == 0
    _spoil(d)
    return str(d)


def _spoil(d):
    """Two copies of ``lm.jsonl`` that go bad after line 1: ``bad.jsonl``
    has a truncated line 51, ``nan.jsonl`` a ``kernel_end`` whose seconds
    are ``NaN`` (which Python's ``json`` writes and reads back)."""
    lines = (d / "lm.jsonl").read_text().splitlines()
    bad = list(lines)
    bad[50] = bad[50][: len(bad[50]) // 2]
    (d / "bad.jsonl").write_text("\n".join(bad) + "\n")
    at = next(i for i, line in enumerate(lines) if '"kind":"kernel_end"' in line)
    doc = json.loads(lines[at])
    doc["seconds"] = float("nan")
    lines[at] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    (d / "nan.jsonl").write_text("\n".join(lines) + "\n")


def _run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "command, code, out, err", PINNED, ids=[pin[0] for pin in PINNED]
)
def test_invocation_is_byte_identical_to_the_flat_parser(
    command, code, out, err, cli_dir, capsys
):
    import hashlib

    def short(text):
        text = text.replace(cli_dir, "{d}")
        return hashlib.sha256(text.encode()).hexdigest()[:16] if text else ""

    got_code, got_out, got_err = _run(command.format(d=cli_dir).split(), capsys)
    assert (got_code, short(got_out), short(got_err)) == (code, out, err), (
        got_out[-2000:] + got_err
    )


# -- one row per subcommand ---------------------------------------------------


def _flags(command):
    return {
        flag for flags, _ in command.options for flag in flags if flag[0] == "-"
    }


def test_subcommands_are_derived_from_the_table():
    from repro.cli import COMMANDS, SUBCOMMANDS

    assert SUBCOMMANDS == tuple(COMMANDS)
    assert len(COMMANDS) == 20
    every = set().union(*(_flags(c) for c in COMMANDS.values()))
    assert len(every) == 21
    assert any(
        "paths" in flags for c in COMMANDS.values() for flags, _ in c.options
    )


def _command_names():
    from repro.cli import COMMANDS

    return list(COMMANDS)


@pytest.mark.parametrize("name", _command_names())
def test_help_lists_exactly_the_rows_own_flags(name, capsys):
    import re

    from repro.cli import COMMANDS

    code, out, _ = _run([name, "--help"], capsys)
    assert code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
    assert listed == _flags(COMMANDS[name]) | {"--help"}


@pytest.mark.parametrize("name", _command_names())
def test_a_flag_the_row_never_reads_is_a_usage_error(name, capsys):
    from repro.cli import COMMANDS

    own = _flags(COMMANDS[name])
    required = ["--model", "tiny"] if "--model" in own else []
    every = set().union(*(_flags(c) for c in COMMANDS.values()))
    for foreign in sorted(every - own):
        code, out, err = _run([name, *required, foreign], capsys)
        assert (code, out) == (2, ""), (name, foreign)
        assert f"unrecognized arguments: {foreign}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["taxonomy", "--plan", "x"],
        ["fig2", "--tenants", "a"],
        ["explain", "--scale", "4"],
        # No prefix matching: --mode must not be read as taxonomy's --modes.
        ["taxonomy", "--mode", "CA:LM"],
    ],
)
def test_foreign_flag_is_named_in_the_error(argv, capsys):
    code, _, err = _run(argv, capsys)
    assert code == 2
    assert f"unrecognized arguments: {argv[1]}" in err


def test_snapshot_pause_after_zero_is_rejected_not_defaulted(capsys):
    code, out, err = _run(f"snapshot {_SNAP} --pause-after 0".split(), capsys)
    assert (code, out) == (2, "")
    assert err == "pause_after must be >= 1, got 0\n"


def test_bench_is_no_longer_a_subcommand(capsys):
    code, out, err = _run(["bench"], capsys)
    assert (code, out) == (2, "")
    assert "invalid choice: 'bench'" in err


@pytest.mark.parametrize(
    "command",
    [
        "fig3 --scale -1",
        "profile --model resnet200-small --scale 0",
        "fig3 --iterations 0",
        "taxonomy --scale 0",
        "table3 --scale 0",
        # used to emit the *unscaled* trace, silently
        "trace --model resnet200-small --scale 0",
        "trace --model resnet200-small --scale -5",
    ],
)
def test_non_positive_scale_or_iterations_exits_2_in_one_line(command, capsys):
    *_, flag, value = command.split()
    code, out, err = _run(command.split(), capsys)
    assert (code, out) == (2, "")
    assert err == f"{flag[2:]} must be >= 1, got {value}\n"


@pytest.mark.parametrize(
    "command, message",
    [
        # numpy's ValueError traceback
        ("serve --seed -1", "seed cannot be negative, got -1"),
        # ran and reported the cell twice
        ("taxonomy --modes CA:LM,CA:LM", "duplicate modes: ['CA:LM', 'CA:LM']"),
    ],
)
def test_a_bad_value_exits_2_in_one_line(command, message, capsys):
    assert _run(command.split(), capsys) == (2, "", message + "\n")


@pytest.mark.parametrize(
    "command",
    [
        "trace --model tiny --scale 256 --out {bad}",
        f"profile --model tiny {_FAST} --out {{bad}}",
        f"profile --model tiny {_FAST} --jsonl {{bad}}",
        "explain {d}/lm.jsonl --out {bad}",
        "diff {d}/lm.jsonl {d}/lmp.jsonl --out {bad}",
        f"snapshot {_SNAP} --out {{bad}}",
        "chaos --plan copy-flaky --dump-dir {bad}",
    ],
)
def test_an_unwritable_output_path_exits_2_in_one_line(
    command, cli_dir, tmp_path, capsys
):
    """What an unreadable input path gets; it used to be a traceback after
    the whole run. (The parent is a regular file, not merely missing,
    because the flight recorder creates missing directories.)"""
    (tmp_path / "file").write_text("")
    bad = str(tmp_path / "file" / "out")
    code, out, err = _run(command.format(d=cli_dir, bad=bad).split(), capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and bad in err


def test_every_command_resolves_a_model_key_the_same_way(tmp_path, capsys):
    """One resolver: `tiny` is a model wherever --model is, and an unknown
    key gets the same message from every command."""
    out = tmp_path / "tiny"
    for command in (
        f"snapshot --model tiny --scale 256 --out {out}.snap",
        f"trace --model tiny --scale 256 --out {out}.json",
    ):
        code, _, err = _run(command.split(), capsys)
        assert (code, err) == (0, ""), command
    messages = {
        _run([command, "--model", "nope"], capsys)
        for command in ("profile", "snapshot", "trace", "monitor")
    }
    assert len(messages) == 1
    code, out, err = messages.pop()
    assert (code, out) == (2, "")
    assert err.startswith("unknown model 'nope'; known: ") and "tiny" in err


def test_all_json_is_one_document_keyed_by_experiment(capsys):
    import json

    from repro.cli import EXPERIMENTS

    code, out, _ = _run("all --scale 2048 --iterations 1 --json".split(), capsys)
    assert code == 0
    document = json.loads(out)
    assert list(document) == list(EXPERIMENTS)
    assert "resnet200-large" in document["table3"]
    assert 0 < document["fig4"]["2LM:M"]["hit_rate"] <= 1


@pytest.mark.parametrize("command, cells", [("all", 18), ("fig3", 2), ("fig6", 12)])
def test_each_evaluation_matrix_cell_is_simulated_once(
    command, cells, monkeypatch, capsys
):
    """Figures 2-6 are views of one run set: `all` simulates the 18 distinct
    (model, mode) cells once (it was 52), a single figure only its own."""
    from repro.experiments import common, fig2_runtime

    calls = []
    prepare = common.prepare_trace_mode

    def counting(trace, mode_name, config, *, model_label=""):
        calls.append((model_label, mode_name, config.dram_bytes))
        return prepare(trace, mode_name, config, model_label=model_label)

    monkeypatch.setattr(common, "prepare_trace_mode", counting)
    code, _, _ = _run([command, *_TINY.split()], capsys)
    assert code == 0
    # fig7 and ext (small models, other DRAM budgets) keep their own runners.
    matrix = [call for call in calls if call[0] in fig2_runtime.MODELS]
    assert len(matrix) == len(set(matrix)) == cells
    if command != "all":
        assert calls == matrix

"""Byte-identity pins for the telemetry seam (beside the golden digests).

The golden digests hold the *simulated* result; these hold what the
tracers *report* about it, byte for byte: the full tier's JSONL v3 export,
the monitor's health snapshot and flight ring (the same whether or not the
run keeps its records), and the flight-dump tree a chaos plan leaves
behind. They were recorded at the
commit before the one-seam refactor (every site hand-building its event in
an ``if tracer.enabled`` arm and again in an ``elif tracer.monitoring``
arm) and must not move: a change here means an emitted event, a rollup, or
a flight record changed shape, order or timestamp.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.core.session import Session, SessionConfig, SharedRuntime
from repro.errors import CachedArraysError
from repro.experiments.common import ExperimentConfig, model_trace, run_trace_mode
from repro.faults.chaos import run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.plan import FAULT_PLANS, fault_plan
from repro.faults.policy import FaultyPolicy
from repro.memory.device import MemoryDevice
from repro.policies.adaptive import AdaptivePolicy
from repro.policies.multitier import MultiTierPolicy
from repro.policies.optimizing import OptimizingPolicy
from repro.policies.watchdog import PolicyWatchdog
from repro.runtime.executor import CachedArraysAdapter, Executor, TwoLMAdapter
from repro.runtime.gc import GcConfig
from repro.runtime.kernel import ExecutionParams
from repro.telemetry.export import write_jsonl
from repro.telemetry.monitor import MonitorConfig
from repro.twolm.system import TwoLMSystem
from repro.units import GB, KiB, MiB
from repro.workloads.annotate import annotate
from repro.workloads.signatures import tiny_objects_trace
from repro.workloads.synthetic import streaming_trace

SCALE = 256
MODE = "CA:LMP"

GOLDEN_JSONL = {
    False: "dd05151bc130f280ebd0ee2bd889be03cce70e8b98cad535463e6f5aaa59c84f",
    True: "8558cfd9594309ea7bb06b47be3309a2c3ff04a0a566b68efd70597c91ecc406",
}
# The full tier's monitor (tracing + monitor: every event rung and folded),
# recorded while it still folded through ``observe`` and must not move now
# that its ``_event`` calls the fold table all intakes share: (health
# snapshot, flight ring). A monitored run that keeps no records folds the
# same events and must land on the same pair.
GOLDEN_FULL_MONITOR = {
    False: (
        "fa8ceb12205fe0209e2b52a4d94cd733caf21d74031d41639d1593fd119b1ffd",
        "f113380dda93ded016abad6cacc9e5f07f32396c55b8ac3b8aabc92159ce63cf",
    ),
    True: (
        "8da1b28f078275ad3f8c548fa3aab5b66cd0ca66d0a2050f3c76b5d077ab56a3",
        "1bffe943727df93af52c18bcb4d1003ccffacf84cdb71dddba720d9be360ca5c",
    ),
}
# Flight-dump tree of `repro chaos --plan <name> --dump-dir D` (full tier +
# monitor: each retained record rung by ``MonitorTracer._event``, dumped as
# the TraceEvent the trace view reads).
GOLDEN_CHAOS_FLIGHT_TREE = {
    "alloc-storm": "3327a481d1dbc82a0985132024c048b17a4bf7d4042c4a3059dd9267bf03717d",
    "bisect-demo": "61b8296a749b9c5627e0fdb00fd3dd5f37fbad9f36574b3e047b3ace90ec0407",
    "copy-corrupt": "40a0414787b5ba18d794672801f256782b109ff4ae26928678bb611cf6d7793d",
    "copy-exhaust": "29b50f7adc7204c72d8869673386e687a2a47c05e6de35bae4a090fd680dd097",
    "copy-flaky": "b1f01f382e6c4ca1223fe76fbdb759d60a23a78c603f2e6fe0a8e571e223244a",
    "dram-squeeze": "efd305ce3ede352a78502f7293a4b55c7f30a1b7c3db0bf9dbf7d1460370a9c0",
    "elastic-ops": "76092a8547be8f1c4b124aa5cc5e80e1e1eb0ca8f9144c6344f87564a5c24ab8",
    "fragmentation": "e8c29c567ccca323a7dee326e7c28743d62523a604a427b243947c86bf615037",
    "kitchen-sink": "9c6e64236861f1678ff4968cad6e01d58f8b64824c90ba532860d5e879766652",
    "policy-bug": "51c99e3444440031cb1ee44b031e3a2867cddc8e71aca5b2c2411cd22512f9fc",
    "slow-bus": "6acaa1f663d65df80be0f77826df835489307e9cb4f6b24b957dd49004aeb1f8",
}
# The chaos virtual scenario below, monitored without keeping records (each
# test first checks it equals the same scenario traced): (flight-dump
# tree, health snapshot).
GOLDEN_MONITOR_ONLY_CHAOS = {
    "alloc-storm": (
        "b4b6e290eb2313aa89ae8adadd8569db143ee001fb9def8b4508c77f595a07c2",
        "94a348b9d4e2bc2508c35d2e4be63fead80d4da39f67101fe8cf24fcd3831bf8",
    ),
    "bisect-demo": (
        "6a7d1ddf48e0ad0a73d52c089c4a2a8588ddf0b90f86bc0b0f0b6b95a58e26eb",
        "c115309451141a64ccad58140157c0f78c28644ebd15bdea654495bbbe403547",
    ),
    "copy-corrupt": (
        "3ad098b996613826e88bcef4b3a8b8679b8233a646d6830e08724595953565f1",
        "ec583ba0d8e5653dcdabd1c70775629f46c157af3ebd8e0844a5e8d96812c365",
    ),
    "copy-exhaust": (
        "ac7dd53463553ad5e9e1b8080af10924f7e04873fe811fe0395ce6e516456714",
        "ed214cf09cd4569f791152e75f17ee972f0aa0cf4002a50774c163de7eda48e8",
    ),
    "copy-flaky": (
        "ee0124b1195be87b9f1400742782241871db5cfb552d822c401f9cb1a0fcb743",
        "40f4ddebdbbfc69a29be00b7106c50d24174236f49f0f839f21e79ea3e6af6bb",
    ),
    "dram-squeeze": (
        "cb0fd8f3cf74fa770fbe520334483f307f8a60c21557d214a278e8e099868091",
        "af3643ea99e20f865ffb424ad4ab958fadef28081cfbf0c90c952b96fde5c0f6",
    ),
    "elastic-ops": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cafb2a8532e176390adf31fc4e6060c4b1204242cb0201fd649af798f18ce81e",
    ),
    "fragmentation": (
        "a66b600a578abe172b55357fabf5c7136ff51a52967e751c7f087aef84593c21",
        "f8e67c81d30847d08b6e36d20fdc0b2b593112a61c2fcf2e80148cc9aed60239",
    ),
    "kitchen-sink": (
        "19a76bc75480b9c032311842680cfe534fec76bc52644f9642263bca839fc75d",
        "d63aaea5566ae58a463620b42895dd77201a21b10fce79b951c1722da8b9057b",
    ),
    "policy-bug": (
        "37864f7f21208542164489e8715671e05e45ed663fe499d2a3a430d597b359c2",
        "b37c50cb36a058a3373d81d9889ec0335907c1ddafc21d34c00da9dc61bcfc87",
    ),
    "slow-bus": (
        "0ca9f83f90d41a97ed5090ed8460a199d9f332ce367fce6023b6e2b150a86014",
        "fe9efe0694916484192f99252cb30ee0d9050ef31c12d62c350752ec36dee801",
    ),
}
GOLDEN_MONITOR_ONLY_ELASTIC = (
    "76899c7b5146e73a717c97c09b45df8549dcce38e273999ef9cc9379f457245e",
    "f392ebd73cc967b96359622b6347d94c8c4f31ca701e0500cf86cf0546cf0b24",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(async_movement: bool, *, tracing: bool):
    config = ExperimentConfig(
        scale=SCALE,
        iterations=2,
        tracing=tracing,
        monitor=True,
        async_movement=async_movement,
        monitor_config=MonitorConfig(window_seconds=0.01, ring_capacity=4096),
    )
    return run_trace_mode(model_trace("tiny", config), MODE, config)


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _snapshot_digest(monitor) -> str:
    snapshot = monitor.snapshot(recent_windows=1 << 20).to_json()
    snapshot.pop("flight_dumps")  # absolute paths under tmp_path
    return _sha(json.dumps(snapshot, sort_keys=True).encode())


def _ring_digest(monitor) -> str:
    ring = io.StringIO()
    monitor.ring.dump(ring, reason="pin", ts=monitor.last_ts)
    return _sha(ring.getvalue().encode())


@pytest.mark.parametrize("async_movement", [False, True])
def test_full_tier_jsonl_export_bytes(async_movement):
    result = _run(async_movement, tracing=True)
    buffer = io.StringIO()
    write_jsonl(result.run.trace, buffer)
    assert _sha(buffer.getvalue().encode()) == GOLDEN_JSONL[async_movement]


@pytest.mark.parametrize("async_movement", [False, True])
def test_full_tier_snapshot_and_flight_ring_bytes(async_movement):
    monitor = _run(async_movement, tracing=True).monitor
    assert (
        _snapshot_digest(monitor), _ring_digest(monitor)
    ) == GOLDEN_FULL_MONITOR[async_movement]


@pytest.mark.parametrize("async_movement", [False, True])
def test_monitor_only_tier_snapshot_and_flight_ring_bytes(async_movement):
    result = _run(async_movement, tracing=False)
    assert len(result.run.trace) == 0
    monitor = result.monitor
    assert (
        _snapshot_digest(monitor), _ring_digest(monitor)
    ) == GOLDEN_FULL_MONITOR[async_movement]


@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
def test_chaos_flight_dump_tree_bytes(plan, tmp_path):
    assert run_chaos(plan, dump_dir=str(tmp_path)).ok
    assert _tree_digest(tmp_path) == GOLDEN_CHAOS_FLIGHT_TREE[plan]


def _virtual_scenario(plan: str, dump_dir: str, *, tracing: bool):
    """chaos.py's trace-virtual scenario, monitored."""
    injector = FaultInjector(fault_plan(plan))
    policy = PolicyWatchdog(
        FaultyPolicy(
            OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True),
            injector,
        )
    )
    session = Session(
        SessionConfig(
            dram=2 * MiB,
            nvram=32 * MiB,
            tracing=tracing,
            monitor=True,
            monitor_config=MonitorConfig(dump_dir=dump_dir),
        ),
        policy=policy,
        injector=injector,
    )
    executor = Executor(
        CachedArraysAdapter(session, ExecutionParams()),
        gc_config=GcConfig(trigger_bytes=8 * MiB),
    )
    trace = annotate(
        streaming_trace(stages=24, tensor_bytes=512 * KiB), memopt=False
    )
    try:
        executor.run(trace, iterations=2)
    except CachedArraysError as error:
        session.monitor.record_escalation(f"abort:{type(error).__name__}")
    session.monitor.finish()
    return session.monitor


@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
def test_monitor_only_tier_chaos_flight_and_snapshot_bytes(plan, tmp_path):
    kept, dropped = tmp_path / "kept", tmp_path / "dropped"
    traced = _virtual_scenario(plan, str(kept), tracing=True)
    monitor = _virtual_scenario(plan, str(dropped), tracing=False)
    digests = _tree_digest(dropped), _snapshot_digest(monitor)
    assert digests == (_tree_digest(kept), _snapshot_digest(traced))
    assert digests == GOLDEN_MONITOR_ONLY_CHAOS[plan]


def _elastic_scenario(dump_dir: str, *, tracing: bool):
    """Tenant churn and online resize, monitored."""
    runtime = SharedRuntime(
        SessionConfig(
            dram=4 * MiB,
            nvram=32 * MiB,
            tracing=tracing,
            monitor=True,
            monitor_config=MonitorConfig(dump_dir=dump_dir),
        )
    )
    sessions = {
        tenant: runtime.session(
            OptimizingPolicy(fast="DRAM", slow="NVRAM", local_alloc=True),
            tenant=tenant,
            dram_quota=2 * MiB,
        )
        for tenant in ("t0", "t1")
    }
    for index in range(6):
        for tenant, session in sessions.items():
            runtime.activate(tenant)
            session.empty((128 * KiB,), "float32", name=f"{tenant}.a{index}")
    runtime.detach("t0")
    runtime.resize("DRAM", 2 * MiB)
    runtime.resize("DRAM", 6 * MiB)
    runtime.monitor.finish()
    return runtime.monitor


def test_monitor_only_tier_elastic_events_bytes(tmp_path):
    kept, dropped = tmp_path / "kept", tmp_path / "dropped"
    traced = _elastic_scenario(str(kept), tracing=True)
    monitor = _elastic_scenario(str(dropped), tracing=False)
    assert monitor.totals["detaches"] == 1 and monitor.totals["resizes"] == 2
    digests = _tree_digest(dropped), _snapshot_digest(monitor)
    assert digests == (_tree_digest(kept), _snapshot_digest(traced))
    assert digests == GOLDEN_MONITOR_ONLY_ELASTIC


# -- the victim scans ------------------------------------------------------------
#
# Recorded at the commit before the three hand-copied ``_find_eviction_start``
# bodies became one scan in ``policies/base.py``: the full event stream
# (every ``decision`` event's chosen victim, ``considered`` and rejected
# list included) and the full-precision iteration seconds of a run that is
# at DRAM capacity throughout, for the policies whose streams nothing above
# pins. The three-tier platform is sized so most DRAM demotions cascade
# into a CXL demotion. The two MultiTier streams were re-recorded once, when
# ``_demote_region`` stopped probe-allocating and freeing the room below
# before Listing 1 allocated it again (one ``alloc`` and one ``free`` event
# fewer per unlinked demotion, every other event and the seconds unchanged).

PRESSURE_SCALE = 4096
GOLDEN_PRESSURE_JSONL = {
    "adaptive": "8492713b45093340b1449db9dfc21d870866b215a27ef21b5252259a7cbc8f89",
    "two-tier": "922f87bc0a96ed0654dd2c9b23cc74a20005920a6a5a46ceb842db4d8500ac0e",
    "three-tier": "d8c578069042d07945795f6f491a9ff34bdc51b6746fbba8257eacdfd62b2e1b",
}
GOLDEN_PRESSURE_SECONDS = {
    "adaptive": ["0x1.defff73bc9b44p-5", "0x1.dc179be2c4056p-5"],
    "two-tier": ["0x1.defff73bc9b44p-5", "0x1.dc179be2c4056p-5"],
    "three-tier": ["0x1.148951994e5d3p-4", "0x1.de7d2f9f4780ep-5"],
}


def _pressure_run(name: str):
    config = ExperimentConfig(
        scale=PRESSURE_SCALE,
        iterations=2,
        dram_bytes=(90 if name == "three-tier" else 180) * GB,
    )
    devices = [config.build_dram(), config.build_nvram()]
    if name == "three-tier":
        devices.insert(
            1, MemoryDevice.cxl(45 * GB // PRESSURE_SCALE, name="CXL")
        )
    policy = (
        AdaptivePolicy(local_alloc=True)
        if name == "adaptive"
        else MultiTierPolicy([device.name for device in devices])
    )
    session = Session(
        SessionConfig(devices=devices, tracing=True), policy=policy
    )
    executor = Executor(
        CachedArraysAdapter(session, config.scaled_params()),
        sample_timeline=False,
    )
    trace = annotate(
        tiny_objects_trace(seed=7).scaled(PRESSURE_SCALE), memopt=True
    )
    run = executor.run(trace, iterations=2)
    stream = io.StringIO()
    write_jsonl(session.tracer.events, stream)
    return (
        _sha(stream.getvalue().encode()),
        [float(it.seconds).hex() for it in run.iterations],
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_PRESSURE_JSONL))
def test_pressure_run_event_stream_and_seconds_bytes(name):
    stream, seconds = _pressure_run(name)
    assert seconds == GOLDEN_PRESSURE_SECONDS[name]
    assert stream == GOLDEN_PRESSURE_JSONL[name]


# -- the 2LM half ---------------------------------------------------------------
#
# Recorded at the commit before the DRAM-cache tag passes moved from
# per-pass gather/scatter to quotient tags on slice views: every iteration's
# full-precision timings, tag statistics and device traffic on the
# hardware-cache baseline, which the golden results hold only to rel=0.03.

TWOLM_SCALE = 64
TWOLM_MODELS = ("densenet264-small", "resnet200-small", "vgg116-small")
GOLDEN_TWOLM = {
    ("densenet264-small", "2LM:0"): "20e5f62c266c9ef216cabab10c7ee55d91c752212a055f2bbd54c05db511b1e2",
    ("densenet264-small", "2LM:M"): "0e6cc76e1fd0fc331c09023d0e56236d52f7e3dda08a10e97202b2e827fca691",
    ("resnet200-small", "2LM:0"): "d125a4c0d9a758166dd227e0c0914d6ebea3178d4f91b99bb7232817bf2b8724",
    ("resnet200-small", "2LM:M"): "464d043b188ff94b70f6dd1c47a434c8a39d2691ac18ccfa549ae74195f3961f",
    ("vgg116-small", "2LM:0"): "ce27f96c81eb064476c5f9a0b6e4d1c1f24c582ce9754948fa877477decb1446",
    ("vgg116-small", "2LM:M"): "30794d52257e97e08d47841524bbc06e6842be1a2f56b4ace125bd57a245a865",
}
# DramCacheSim(ways=4) on vgg116-small, unannotated for memory optimisation.
GOLDEN_TWOLM_WAYS4 = "666ed30a023ae18da336c81483638bd4b19c1c85a5c41d055da1cbbcbfeba03e"


def _twolm_digest(run) -> str:
    dump = [
        {
            "seconds": float(it.seconds).hex(),
            "compute": float(it.compute_seconds).hex(),
            "kernel_memory": float(it.kernel_memory_seconds).hex(),
            "cache": [it.cache.hits, it.cache.clean_misses, it.cache.dirty_misses],
            "traffic": {
                device: [snap.read_bytes, snap.write_bytes]
                for device, snap in sorted(it.traffic.items())
            },
        }
        for it in run.iterations
    ]
    return _sha(json.dumps(dump, sort_keys=True).encode())


@pytest.mark.parametrize("mode", ["2LM:0", "2LM:M"])
@pytest.mark.parametrize("model", TWOLM_MODELS)
def test_twolm_iteration_results_bytes(model, mode):
    config = ExperimentConfig(scale=TWOLM_SCALE, iterations=2)
    result = run_trace_mode(model_trace(model, config), mode, config)
    assert _twolm_digest(result.run) == GOLDEN_TWOLM[model, mode]


def test_twolm_four_way_cache_results_bytes():
    config = ExperimentConfig(scale=TWOLM_SCALE, iterations=2)
    system = TwoLMSystem(
        config.build_dram(),
        config.build_nvram(),
        line_size=config.line_size,
        ways=4,
    )
    executor = Executor(
        TwoLMAdapter(system, config.scaled_params()), sample_timeline=False
    )
    trace = annotate(model_trace("vgg116-small", config), memopt=False)
    run = executor.run(trace, iterations=2)
    assert _twolm_digest(run) == GOLDEN_TWOLM_WAYS4

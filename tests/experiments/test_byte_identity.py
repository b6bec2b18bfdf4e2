"""Byte-identity pins for the telemetry seam (beside the golden digests).

The golden digests hold the *simulated* result; these hold what the three
tracer tiers *report* about it, byte for byte: the full tier's JSONL v3
export, each monitored tier's health snapshot and flight ring, and the
flight-dump tree a chaos plan leaves behind. They were recorded at the
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
GOLDEN_SNAPSHOT = {
    False: "c7b8df30d85b42e69f2ab18c06282b5879ca975e387e5e44be0dac743dc10d53",
    True: "103bdfe672ca45620c4488454599759740c8f4ff72697da9f0ab4d9acd783d57",
}
GOLDEN_CHEAP_FLIGHT = {
    False: "07aa71c18d926f912f6f9b8c957918f27517588d2eff929810bb48ce2912af05",
    True: "00b330a6fa28911721dca9788f409119688879373d6ad5ff956c1a7737b40548",
}
# The full tier's monitor (tracing + monitor: every event rung and folded),
# recorded while it still folded through ``observe`` and must not move now
# that its ``_event`` calls the fold table all intakes share: (health
# snapshot, flight ring).
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
# The same virtual scenario on the monitor-only tier (compact ring tuples
# rung by ``RuntimeMonitor.note_event``, which its tracer's ``_event`` hands
# every event): (flight-dump tree, health snapshot).
GOLDEN_CHEAP_CHAOS = {
    "alloc-storm": (
        "05253f449dc807dc019c4d02f50f4503a0e7d3db1a3c0c26b687c86a74d67b7a",
        "4263019c7cd4b061f345b22f4e3318d476028eb205a45b82c17ae992b9c74138",
    ),
    "bisect-demo": (
        "2c7cd4038b93d70db3d97f979a8e491a994dc0e07ed2480929b8b2717c1f14f6",
        "b86e2bdb9dcab60a8d83ade3fbd185a4a40153f22e7cabb4e566b0e8f1ee2d2c",
    ),
    "copy-corrupt": (
        "7cf1473598d652566a430f207e706771288ba1ba1d937f475583b43bcbe921d5",
        "54706ed7e7a766f4defd07cc565331dd6998b7d0b8b08b702cbf9c708145af10",
    ),
    "copy-exhaust": (
        "7149371620a08c4e66941b93057f57a94de7e2c0c3f715c98397358af897a4f5",
        "1a658bd744a0ed37942a31ef7fff20d9f74e3927e0f7a5dc904c8a78e57980d7",
    ),
    "copy-flaky": (
        "c4b69f3447d51d7b06005cd445ce6d3ab0f69c2fcd943be388f251c7b3733942",
        "e56b2a52b9f650aa264e2f13ca02f6bc2c4a14c958966ff14eae4685430cbae2",
    ),
    "dram-squeeze": (
        "905aa325ef4320d9fb60c5c0f4d54342218512157ce7132d5b77535fd4ab017d",
        "f34cc704fb97f61ba6e8f010e4785d0e5947ebac51dea334149501f1b5435c08",
    ),
    "elastic-ops": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "89894ee47f73437c0dcaabb2e9648053d35d4a581367b344b6498ecb79e1a6c1",
    ),
    "fragmentation": (
        "a501b744f5787d42017d3711781b9c7acac9a99838dc6bf2e2dc1d20c62b4587",
        "2baefe1244814c7cf619e976a8d4d75dc6662b36e94b5414846ed0c1f2e006c4",
    ),
    "kitchen-sink": (
        "2e6942ee8821d3defd43befa807af4f4a1696efad7b5ff2bdf36f4af7b8a5d48",
        "539b1a93cd2c93a4a031dc12bf39873f1ed8811bdab8c86cea73fdfcfad61dfa",
    ),
    "policy-bug": (
        "1eacdfeb0b2369ddea278ab114086fd6488fa6951260d8b38e2fbf6352a1f218",
        "2181e0eca08b83cfb16d877b3145d3d43fb414d8da72c25f69613f62f52f9084",
    ),
    "slow-bus": (
        "931a0d4de203593612d388424029d20d091ba1160a07776bf0e339cfa6266f80",
        "189e11038e8413dae3ee9e6ab811c4c6f00ea8d543f5f435a98d46273a8bbe35",
    ),
}
GOLDEN_CHEAP_ELASTIC = (
    "ad5ec0466970bd79984093c95e483a9a2e9f905a892001fa9b33c65dda5e462e",
    "fe5eba499ccac29e2727143b9be7251bf6e6ea89a7fcf4908d9b6b037566f77d",
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
    monitor = _run(async_movement, tracing=False).monitor
    assert _snapshot_digest(monitor) == GOLDEN_SNAPSHOT[async_movement]
    assert _ring_digest(monitor) == GOLDEN_CHEAP_FLIGHT[async_movement]


@pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
def test_chaos_flight_dump_tree_bytes(plan, tmp_path):
    assert run_chaos(plan, dump_dir=str(tmp_path)).ok
    assert _tree_digest(tmp_path) == GOLDEN_CHAOS_FLIGHT_TREE[plan]


def _cheap_virtual_scenario(plan: str, dump_dir: str):
    """chaos.py's trace-virtual scenario, on the monitor-only tier."""
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
    monitor = _cheap_virtual_scenario(plan, str(tmp_path))
    assert (
        _tree_digest(tmp_path), _snapshot_digest(monitor)
    ) == GOLDEN_CHEAP_CHAOS[plan]


def _cheap_elastic_scenario(dump_dir: str):
    """Tenant churn and online resize on the monitor-only tier."""
    runtime = SharedRuntime(
        SessionConfig(
            dram=4 * MiB,
            nvram=32 * MiB,
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
    monitor = _cheap_elastic_scenario(str(tmp_path))
    assert monitor.totals["detaches"] == 1 and monitor.totals["resizes"] == 2
    assert (
        _tree_digest(tmp_path), _snapshot_digest(monitor)
    ) == GOLDEN_CHEAP_ELASTIC


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

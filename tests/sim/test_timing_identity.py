"""The timing arithmetic is bit-identical to its documented formula.

``BandwidthModel.transfer_time``, ``copy_time`` and ``kernel_timing`` read
``peak`` through a per-instance memo and inline the rate expression, and
``CopyEngine.copy`` prices a copy from constants its per-pair plan bound
once; this property test recomputes each from ``peak()`` directly — no
memo, no plan, one helper per formula, in the order the docstrings give —
and compares the results by ``float.hex``, cold memo (or engine) and warm
alike.
"""

from hypothesis import given, settings, strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import BANDWIDTH, FaultPlan, FaultSpec
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice, MemoryKind
from repro.memory.heap import Heap
from repro.runtime.kernel import ExecutionParams, kernel_timing
from repro.sim.bandwidth import (
    DegradedBandwidth,
    TransferKind,
    copy_time,
    dram_bandwidth_model,
    optane_bandwidth_model,
    optimal_copy_threads,
)
from repro.sim.clock import SimClock

READ, WRITE, WRITE_NT = TransferKind.READ, TransferKind.WRITE, TransferKind.WRITE_NT


def cxl_model():
    return MemoryDevice.cxl(1).bandwidth


# name -> (device kind, model factory): the three presets, each derated too.
PRESETS = {
    "dram": (MemoryKind.DRAM, dram_bandwidth_model),
    "nvram": (MemoryKind.NVRAM, optane_bandwidth_model),
    "cxl": (MemoryKind.GENERIC, cxl_model),
    "dram-degraded": (
        MemoryKind.DRAM,
        lambda: DegradedBandwidth(inner=dram_bandwidth_model(), factor=3.0),
    ),
    "nvram-degraded": (
        MemoryKind.NVRAM,
        lambda: DegradedBandwidth(inner=optane_bandwidth_model(), factor=1.5),
    ),
    "cxl-degraded": (
        MemoryKind.GENERIC,
        lambda: DegradedBandwidth(inner=cxl_model(), factor=7.25),
    ),
}
# One long-lived instance per preset: its memo fills up across examples.
WARM = {name: factory() for name, (_, factory) in PRESETS.items()}


@st.composite
def models(draw):
    """``(kind, model)``: a fresh instance (cold memo) or the shared one."""
    name = draw(st.sampled_from(sorted(PRESETS)))
    kind, factory = PRESETS[name]
    return kind, WARM[name] if draw(st.booleans()) else factory()


threads = st.integers(min_value=1, max_value=64)
sizes = st.integers(min_value=1, max_value=2**40)


def rate(model, kind, nbytes, threads):
    """The effective bandwidth ``BandwidthModel`` documents, from ``peak``."""
    return nbytes / (nbytes / model.peak(kind, threads) + model.setup_latency)


def transfer_seconds(model, kind, nbytes, threads):
    return nbytes / rate(model, kind, nbytes, threads)


def copy_seconds(source, dest, nbytes, threads, nt_stores):
    """``copy_time``: bytes over the harmonic combination of the source's
    read rate and the destination's (non-temporal) write rate."""
    write_kind = WRITE_NT if nt_stores else WRITE
    read_bw = rate(source, READ, nbytes, threads)
    write_bw = rate(dest, write_kind, nbytes, threads)
    return nbytes / (1.0 / (1.0 / read_bw + 1.0 / write_bw))


def hexes(*values):
    return [float(v).hex() for v in values]


@settings(max_examples=300)
@given(models(), st.sampled_from([READ, WRITE, WRITE_NT]), sizes, threads)
def test_transfer_time_is_the_formula(model, kind, nbytes, threads):
    _, model = model
    expected = transfer_seconds(model, kind, nbytes, threads)
    for _ in range(2):  # the first call may fill the memo, the second reads it
        assert hexes(model.transfer_time(kind, nbytes, threads)) == hexes(expected)


@settings(max_examples=300)
@given(models(), models(), sizes, threads, st.booleans())
def test_copy_time_is_the_formula(source, dest, nbytes, threads, nt_stores):
    (_, source), (_, dest) = source, dest
    expected = copy_seconds(source, dest, nbytes, threads, nt_stores)
    for _ in range(2):
        got = copy_time(source, dest, nbytes, threads, nt_stores=nt_stores)
        assert hexes(got) == hexes(expected)


# -- the copy engine -------------------------------------------------------

# One long-lived engine whose plans fill up across examples, over one heap
# per preset (the plan table is keyed by heap pair).
WARM_ENGINE = CopyEngine(SimClock())
WARM_HEAPS = {
    name: Heap(MemoryDevice(name, kind, 1, WARM[name]))
    for name, (kind, _) in PRESETS.items()
}


@st.composite
def heap_pairs(draw):
    """``(engine, source heap, dest heap)``: a fresh engine over fresh heaps
    and models (cold plan and memo), or the shared engine and heaps."""
    source = draw(st.sampled_from(sorted(PRESETS)))
    dest = draw(st.sampled_from(sorted(PRESETS)))
    if draw(st.booleans()):
        return WARM_ENGINE, WARM_HEAPS[source], WARM_HEAPS[dest]

    def heap(name):
        kind, factory = PRESETS[name]
        return Heap(MemoryDevice(name, kind, 1, factory()))

    return CopyEngine(SimClock()), heap(source), heap(dest)


copy_sizes = st.integers(min_value=0, max_value=2**40)
overheads = st.floats(min_value=0.0, max_value=1.0)


def expected_copy(engine, source, dest, dest_model, nbytes):
    """``(threads, seconds)`` a copy should take: ``copy_seconds`` over
    ``dest_model`` at the pair's optimal thread count, plus the
    per-transfer overhead for a non-empty copy."""
    threads = optimal_copy_threads(
        source.device.bandwidth, dest.device.bandwidth, engine.max_threads
    )
    if not nbytes:
        return threads, 0.0
    seconds = copy_seconds(source.device.bandwidth, dest_model, nbytes, threads, True)
    return threads, seconds + engine.per_transfer_overhead


def check_copies(engine, source, dest, nbytes, threads, seconds):
    """Two copies, the first of which may build the pair's plan: each takes
    ``seconds`` by ``float.hex``, moves the clock and its movement time by
    exactly that, and charges ``nbytes`` to both heaps' counters."""
    clock = engine.clock
    for _ in range(2):
        now, busy = clock.now, clock.busy("movement")
        read, write = source.traffic.read_bytes, dest.traffic.write_bytes
        record = engine.copy(source, 0, dest, 0, nbytes)
        assert (record.threads, record.nt_stores) == (threads, True)
        assert hexes(record.seconds, clock.now, clock.busy("movement")) == hexes(
            seconds, now + seconds, busy + seconds
        )
        assert source.traffic.read_bytes - read == nbytes
        assert dest.traffic.write_bytes - write == nbytes


@settings(max_examples=300)
@given(heap_pairs(), copy_sizes, overheads)
def test_engine_prices_a_copy_as_the_formula(pair, nbytes, overhead):
    engine, source, dest = pair
    engine.per_transfer_overhead = overhead
    expected = expected_copy(engine, source, dest, dest.device.bandwidth, nbytes)
    check_copies(engine, source, dest, nbytes, *expected)


@settings(max_examples=200)
@given(heap_pairs(), copy_sizes, overheads, st.floats(min_value=1.0, max_value=64.0))
def test_engine_prices_a_derated_copy_as_the_degraded_model(
    pair, nbytes, overhead, slowdown
):
    """A bandwidth fault derates the plan's write peak: the same seconds as
    pricing the copy over ``DegradedBandwidth`` wrapping the destination."""
    _, source, dest = pair
    clock = SimClock()
    spec = FaultSpec(BANDWIDTH, count=None, magnitude=slowdown)
    engine = CopyEngine(
        clock, per_transfer_overhead=overhead,
        injector=FaultInjector(FaultPlan("derate", specs=(spec,)), clock=clock),
    )
    derated = DegradedBandwidth(inner=dest.device.bandwidth, factor=slowdown)
    expected = expected_copy(engine, source, dest, derated, nbytes)
    check_copies(engine, source, dest, nbytes, *expected)


# Kernel operands: ``kernel_timing`` skips the non-positive sizes.
operands = st.lists(
    st.tuples(models(), st.integers(min_value=-1, max_value=2**40)), max_size=6
)


@settings(max_examples=200)
@given(
    operands,
    operands,
    threads,
    threads,
    st.floats(min_value=0.0, max_value=1e15),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_kernel_timing_is_the_formula(
    reads, writes, kernel_threads, write_threads, flops, sensitivity
):
    params = ExecutionParams(
        kernel_threads=kernel_threads, nvram_write_threads=write_threads
    )

    def device(kind, model):
        return MemoryDevice("dev", kind, 1, model)

    reads = [(device(*m), n) for m, n in reads]
    writes = [(device(*m), n) for m, n in writes]
    compute = params.launch_overhead + (
        flops / params.peak_flops if flops > 0 else 0.0
    )
    dram = nvram = fixed = 0.0
    for dev, nbytes in reads:
        if nbytes <= 0:
            continue
        seconds = transfer_seconds(dev.bandwidth, READ, nbytes, kernel_threads)
        fixed += dev.bandwidth.setup_latency
        if dev.kind is MemoryKind.NVRAM:
            nvram += seconds * sensitivity
            dram += seconds * (1.0 - sensitivity)
        else:
            dram += seconds
    for dev, nbytes in writes:
        if nbytes <= 0:
            continue
        fixed += dev.bandwidth.setup_latency
        if dev.kind is MemoryKind.NVRAM:
            nvram += transfer_seconds(dev.bandwidth, WRITE_NT, nbytes, write_threads)
        else:
            dram += transfer_seconds(dev.bandwidth, WRITE, nbytes, kernel_threads)
    for _ in range(2):
        got = kernel_timing(flops, reads, writes, params, read_sensitivity=sensitivity)
        assert hexes(got.compute, got.dram, got.nvram, got.fixed) == hexes(
            compute, dram, nvram, fixed
        )

"""The timing arithmetic is bit-identical to its documented formula.

``BandwidthModel.transfer_time``, ``copy_time`` and ``kernel_timing`` read
``peak`` through a per-instance memo and inline the rate expression, and
``CopyEngine.copy`` prices a copy from constants its per-pair plan bound
once; this property test recomputes each from ``peak()`` directly — no
memo, no plan, one helper per formula, in the order the docstrings give —
and compares the results by ``float.hex``, cold memo (or engine) and warm
alike. ``CachedArraysAdapter.kernel`` prices its operands inline from a plan
per heap; it is held to ``kernel_timing`` itself, the reference formula.
"""

from hypothesis import given, settings, strategies as st

from repro.core.session import Session, SessionConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import BANDWIDTH, FaultPlan, FaultSpec
from repro.memory.copyengine import CopyEngine
from repro.memory.device import MemoryDevice, MemoryKind
from repro.memory.heap import Heap
from repro.policies.noop import PinnedPolicy
from repro.runtime.executor import CachedArraysAdapter
from repro.runtime.kernel import (
    KERNEL_THREADS,
    NVRAM_WRITE_THREADS,
    PEAK_FLOPS,
    ExecutionParams,
    kernel_timing,
)
from repro.sim.bandwidth import (
    DegradedBandwidth,
    TransferKind,
    copy_time,
    dram_bandwidth_model,
    optane_bandwidth_model,
    optimal_copy_threads,
)
from repro.sim.clock import SimClock
from repro.workloads.trace import Kernel, TensorSpec

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
    st.floats(min_value=0.0, max_value=1e15),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_kernel_timing_is_the_formula(reads, writes, flops, sensitivity):
    params = ExecutionParams()

    def device(kind, model):
        return MemoryDevice("dev", kind, 1, model)

    reads = [(device(*m), n) for m, n in reads]
    writes = [(device(*m), n) for m, n in writes]
    compute = params.launch_overhead + (
        flops / PEAK_FLOPS if flops > 0 else 0.0
    )
    dram = nvram = fixed = 0.0
    for dev, nbytes in reads:
        if nbytes <= 0:
            continue
        seconds = transfer_seconds(dev.bandwidth, READ, nbytes, KERNEL_THREADS)
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
            nvram += transfer_seconds(
                dev.bandwidth, WRITE_NT, nbytes, NVRAM_WRITE_THREADS
            )
        else:
            dram += transfer_seconds(dev.bandwidth, WRITE, nbytes, KERNEL_THREADS)
    for _ in range(2):
        got = kernel_timing(flops, reads, writes, params, read_sensitivity=sensitivity)
        assert hexes(got.compute, got.dram, got.nvram, got.fixed) == hexes(
            compute, dram, nvram, fixed
        )


# -- the CachedArrays adapter ----------------------------------------------

# A kernel operand: the preset heap it lives on and its logical size.
adapter_operands = st.lists(
    st.tuples(st.sampled_from(sorted(PRESETS)), st.integers(1, 2**36)), max_size=6
)
# Traffic factors: 0 (every operand a zero-byte one), small enough to round
# some operands down to zero bytes, and re-reads above 1.
factors = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-9),
    st.floats(min_value=0.0, max_value=16.0),
)


@settings(max_examples=200, deadline=None)
@given(
    adapter_operands,
    adapter_operands,
    factors,
    factors,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1e15),
)
def test_adapter_prices_a_kernel_as_kernel_timing(
    reads, writes, read_factor, write_factor, sensitivity, flops,
):
    """The adapter's ``KernelTiming`` equals ``kernel_timing`` over the
    operands' devices and effective byte counts, field by field, by
    ``float.hex``: on the kernel that builds the heap plans and on the one
    after it. Each heap's counters move by its operands' bytes."""
    devices = [
        MemoryDevice(name, kind, 1 << 44, factory())
        for name, (kind, factory) in sorted(PRESETS.items())
    ]
    named = [(f"r{i}", dev, n) for i, (dev, n) in enumerate(reads)]
    named += [(f"w{i}", dev, n) for i, (dev, n) in enumerate(writes)]
    session = Session(
        SessionConfig(devices=devices),
        policy=PinnedPolicy("dram", {name: dev for name, dev, _ in named}),
    )
    params = ExecutionParams()
    adapter = CachedArraysAdapter(session, params)
    for name, _, size in named:
        adapter.alloc(TensorSpec(name, size))
    kernel = Kernel(
        "k",
        tuple(name for name in adapter.objects if name[0] == "r"),
        tuple(name for name in adapter.objects if name[0] == "w"),
        flops,
        read_factor=read_factor,
        write_factor=write_factor,
        read_sensitivity=sensitivity,
    )

    def operands(names, factor):
        return [
            (adapter.objects[name].primary.heap.device,
             int(adapter.objects[name].size * factor))
            for name in names
        ]

    expected = kernel_timing(
        flops,
        operands(kernel.reads, read_factor),
        operands(kernel.writes, write_factor),
        params,
        read_sensitivity=sensitivity,
    )
    charged = {name: [0, 0] for name in session.heaps}
    for side, names, factor in ((0, kernel.reads, read_factor),
                                (1, kernel.writes, write_factor)):
        for name in names:
            obj = adapter.objects[name]
            charged[obj.primary.heap.device.name][side] += int(obj.size * factor)
    for _ in range(2):
        before = {n: (h.traffic.read_bytes, h.traffic.write_bytes)
                  for n, h in session.heaps.items()}
        got = adapter.kernel(kernel, None)
        assert hexes(got.compute, got.dram, got.nvram, got.fixed) == hexes(
            expected.compute, expected.dram, expected.nvram, expected.fixed
        )
        assert hexes(got.memory, got.total) == hexes(expected.memory, expected.total)
        for n, heap in session.heaps.items():
            delta = [heap.traffic.read_bytes - before[n][0],
                     heap.traffic.write_bytes - before[n][1]]
            assert delta == charged[n], n

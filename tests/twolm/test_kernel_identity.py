"""A 2LM kernel against a naive reference: timing, tag stats and traffic.

``TwoLMAdapter.kernel`` runs Hypothesis kernels on small caches; the
reference walks every sweep line by line through ``ScalarAssocCache`` and
folds the time plainly over ``transfer_time``. Each example's kernels run
twice, so the second pass reads ``TwoLMSystem``'s sweep-cost memo warm.
Timings compare by ``float.hex``, counters exactly.
"""

import pytest
from dramcache_reference import ScalarAssocCache
from hypothesis import given, settings, strategies as st

from repro.memory.device import MemoryDevice
from repro.runtime.executor import TwoLMAdapter
from repro.runtime.kernel import PEAK_FLOPS, ExecutionParams
from repro.sim.bandwidth import TransferKind
from repro.twolm.system import (
    FILL_THREADS,
    METADATA_OVERHEAD,
    NVRAM_READ_EFFICIENCY,
    WRITEBACK_THREADS,
    TwoLMSystem,
)
from repro.workloads.trace import Kernel, TensorSpec

LINE = 64
BACKING = 256 * LINE
PARAMS = ExecutionParams()

# Under one pass, one, and two or more full passes with and without a tail.
factors = st.sampled_from([0.25, 1.0, 1.5, 2.0, 3.0, 3.7]) | st.floats(0.05, 5.0)
# (read operands, write operands, read factor, write factor, sensitivity,
# flops); operands index the four tensors and may repeat.
kernels = st.tuples(
    st.lists(st.integers(0, 3), max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    factors,
    factors,
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0e9]) | st.floats(0.0, 1.0e12),
)


class Reference:
    """Per-line tags, per-sweep byte counts, the time fold written out."""

    def __init__(self, system: TwoLMSystem):
        self.system = system
        cache = system.cache
        self.cache = ScalarAssocCache(cache.num_sets, cache.ways, LINE)
        self.stats = [0, 0, 0]  # hits, clean misses, dirty misses
        self.dram = [0, 0]  # read, write bytes
        self.nvram = [0, 0]

    def sweep(self, offset, nbytes, is_write):
        """One sweep: (DRAM seconds, NVRAM seconds), counters bumped."""
        system = self.system
        hits, clean, dirty = self.cache.access(offset, nbytes, is_write)
        for i, n in enumerate((hits, clean, dirty)):
            self.stats[i] += n
        misses = clean + dirty
        dram_bytes = (hits + misses + misses + dirty) * LINE
        fill, victim = misses * LINE, dirty * LINE
        metadata = int(dram_bytes * METADATA_OVERHEAD)
        if is_write:
            self.dram[1] += dram_bytes - victim
            self.dram[0] += victim + metadata
        else:
            self.dram[0] += dram_bytes - fill + metadata
            self.dram[1] += fill
        self.nvram[0] += fill
        self.nvram[1] += victim
        dram_s = nvram_s = 0.0
        if dram_bytes:
            dram_s = system.dram.bandwidth.transfer_time(
                TransferKind.READ,
                int(dram_bytes * (1.0 + METADATA_OVERHEAD)),
                FILL_THREADS,
            )
        if fill:
            nvram_s = (
                system.nvram.bandwidth.transfer_time(
                    TransferKind.READ, fill, FILL_THREADS
                )
                / NVRAM_READ_EFFICIENCY
            )
        if victim:
            nvram_s += system.nvram.bandwidth.transfer_time(
                TransferKind.WRITE, victim, WRITEBACK_THREADS
            )
        return dram_s, nvram_s

    def kernel(self, operands, kernel):
        dram_t = nvram_t = 0.0
        s = kernel.read_sensitivity
        for names, factor, is_write in (
            (kernel.reads, kernel.read_factor, False),
            (kernel.writes, kernel.write_factor, True),
        ):
            for name in names:
                offset, size = operands[name]
                remaining = factor
                while remaining > 1e-9:
                    part = min(remaining, 1.0)
                    nbytes = min(max(LINE, int(size * part)), size)
                    dram, nvram = self.sweep(offset, nbytes, is_write)
                    if is_write:
                        dram_t += dram
                        nvram_t += nvram
                    else:
                        dram_t += dram + nvram * (1.0 - s)
                        nvram_t += nvram * s
                    remaining -= part
        compute = PARAMS.launch_overhead + (
            kernel.flops / PEAK_FLOPS if kernel.flops > 0 else 0.0
        )
        return compute, dram_t, nvram_t, 0.0


def check_kernels(ways, num_sets, sizes, specs):
    """Run ``specs`` twice through ``TwoLMAdapter.kernel`` and the
    reference; every timing, the tag stats and both counters must agree."""
    system = TwoLMSystem(
        MemoryDevice.dram(num_sets * ways * LINE),
        MemoryDevice.nvram(BACKING),
        line_size=LINE,
        ways=ways,
    )
    adapter = TwoLMAdapter(system, PARAMS)
    names = [f"t{i}" for i in range(len(sizes))]
    for name, size in zip(names, sizes):
        adapter.alloc(TensorSpec(name, size))
    operands = {n: (adapter.offsets[n], adapter.sizes[n]) for n in names}
    ref = Reference(system)
    kernels = [
        Kernel(
            f"k{i}",
            tuple(names[r] for r in reads),
            tuple(names[w] for w in writes),
            flops,
            read_factor=rf,
            write_factor=wf,
            read_sensitivity=sensitivity,
        )
        for i, (reads, writes, rf, wf, sensitivity, flops) in enumerate(specs)
    ]
    # The second replay prices its sweeps from a warm cost memo.
    for kernel in kernels * 2:
        timing = adapter.kernel(kernel, None)
        got = (timing.compute, timing.dram, timing.nvram, timing.fixed)
        want = ref.kernel(operands, kernel)
        assert [x.hex() for x in got] == [x.hex() for x in want]
        system.cache.check_invariants()
    stats = system.cache_stats()
    assert [stats.hits, stats.clean_misses, stats.dirty_misses] == ref.stats
    dram, nvram = system.dram_traffic, system.nvram_traffic
    assert [dram.read_bytes, dram.write_bytes] == ref.dram
    assert [nvram.read_bytes, nvram.write_bytes] == ref.nvram


@given(
    ways=st.sampled_from([1, 2, 4]),
    num_sets=st.sampled_from([3, 5, 8, 13]),
    sizes=st.lists(st.integers(1, 40 * LINE), min_size=4, max_size=4),
    specs=st.lists(kernels, min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_kernel_matches_naive_reference(ways, num_sets, sizes, specs):
    check_kernels(ways, num_sets, sizes, specs)


@pytest.mark.parametrize("ways", [1, 2, 4])
def test_repeated_passes_over_tensors_larger_than_the_cache(ways):
    """Fixed cases for the closed form's edges, factors of 2 or more
    throughout: a tensor of exactly the cache's lines, one line more,
    twice the cache, a tensor read and written by one kernel, and tails
    that are and are not contained. A pass after the first is answered in
    closed form only when its span fits a direct-mapped set array."""
    lines = 8
    sizes = [lines * LINE, (lines + 1) * LINE, 2 * lines * LINE + 5, 3 * LINE]
    specs = [
        ((0,), (0,), 2.0, 3.0, 1.0, 1.0e9),
        ((1,), (1,), 2.5, 2.0, 0.5, 0.0),
        ((2, 2), (3,), 3.7, 2.0, 0.0, 1.0e9),
        ((3, 0), (3,), 2.25, 2.5, 1.0, 1.0e9),
        ((0, 1, 2, 3), (2,), 4.0, 1.0, 0.3, 1.0e12),
    ]
    check_kernels(ways, lines // ways, sizes, specs)


# -- the fused walk against the walk followed by a separate fold ---------------


def fold_after_walk(system, spans, walked, read_sensitivity):
    """A batch's cost folded after its walk, from each sweep's ``(lines,
    hits, dirty)`` entry: each sweep's cost from ``_sweep_cost``, summed in
    sweep order. (DRAM s, NVRAM s, DRAM read, DRAM write, NVRAM read,
    NVRAM write bytes)."""
    hidden = 1.0 - read_sensitivity
    dram_time = nvram_time = 0.0
    traffic = [0, 0, 0, 0]
    for (_, _, is_write), entry in zip(spans, walked):
        dram, nvram, *bytes_moved = system._sweep_cost(is_write, entry)
        traffic = [a + b for a, b in zip(traffic, bytes_moved)]
        if is_write:
            dram_time += dram
            nvram_time += nvram
        else:
            dram_time += dram + nvram * hidden
            nvram_time += nvram * read_sensitivity
    return dram_time, nvram_time, *traffic


def counters(system):
    dram, nvram = system.dram_traffic, system.nvram_traffic
    return [dram.read_bytes, dram.write_bytes, nvram.read_bytes, nvram.write_bytes]


# One operand's passes as a kernel hands them: a span, ``copies`` more
# passes as the same tuple, then perhaps a tail that starts with it.
operand_passes = st.tuples(
    st.integers(0, 255),
    st.integers(1, 16) | st.integers(1, 120),
    st.booleans(),
    st.integers(0, 3),
    st.none() | st.tuples(st.integers(1, 40), st.booleans()),
)


def kernel_spans(operands):
    spans = []
    for first, lines, is_write, copies, tail in operands:
        whole = (first, min(lines, 256 - first), is_write)
        spans += [whole] * (copies + 1)
        if tail is not None:
            lines, tail_write = tail
            spans.append((first, min(lines, whole[1]), tail_write))
    return spans


@given(
    ways=st.sampled_from([1, 2, 4]),
    num_sets=st.sampled_from([3, 5, 8, 13, 32]),
    batches=st.lists(
        st.tuples(st.lists(operand_passes, min_size=1, max_size=4), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=150, deadline=None)
def test_fused_walk_equals_walk_then_fold(ways, num_sets, batches):
    """``TwoLMSystem.access_spans`` prices each sweep inside the tag walk.
    The per-line reference walks the same batches span by span, and its
    ``(lines, hits, dirty)`` entries are folded afterwards: the seconds
    agree by ``float.hex``, the four counter deltas, the tag stats and the
    dirty-line count exactly."""
    fused = TwoLMSystem(
        MemoryDevice.dram(num_sets * ways * LINE),
        MemoryDevice.nvram(BACKING),
        line_size=LINE,
        ways=ways,
    )
    ref = ScalarAssocCache(num_sets, ways, LINE)
    stats = [0, 0, 0]  # hits, clean misses, dirty misses
    for operands, sensitivity in batches:
        spans = kernel_spans(operands)
        before = counters(fused)
        got = fused.access_spans(spans, sensitivity)
        moved = [a - b for a, b in zip(counters(fused), before)]
        walked = []
        for first, lines, is_write in spans:
            hits, clean, dirty = ref.access(first * LINE, lines * LINE, is_write)
            stats = [stats[0] + hits, stats[1] + clean, stats[2] + dirty]
            walked.append((lines, hits, dirty))
        want = fold_after_walk(fused, spans, walked, sensitivity)
        assert [x.hex() for x in got] == [x.hex() for x in want[:2]]
        assert moved == list(want[2:])
        cache = fused.cache_stats()
        assert [cache.hits, cache.clean_misses, cache.dirty_misses] == stats
        assert fused.cache.dirty_lines() == ref.dirty_lines()
        fused.cache.check_invariants()

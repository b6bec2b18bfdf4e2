"""Property tests: the cache simulator vs a scalar per-line reference model."""

from dataclasses import astuple

import pytest
from dramcache_reference import ScalarAssocCache
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.twolm.dramcache import CacheStats, DramCacheSim


@st.composite
def access_sequences(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return [
        (
            draw(st.integers(min_value=0, max_value=8000)),
            draw(st.integers(min_value=1, max_value=3000)),
            draw(st.booleans()),
        )
        for _ in range(n)
    ]


LINE = 64
LINES = 97  # prime: no set count below divides the backing store's line count

# (first line, line count, head offset, tail bytes, sets back from the last
# set or None): a byte range whose ends need not be line-aligned. Counts run
# past the whole cache (several segments); a non-None last field snaps the
# start into the last few sets, so the range wraps the set array at once.
spans = st.tuples(
    st.integers(0, LINES - 1),
    st.integers(1, LINES),
    st.integers(0, LINE - 1),
    st.integers(1, LINE),
    st.none() | st.integers(0, 2),
)


def unpriced(is_write, entry):
    """A sweep-cost pricer for walks that only count: every cost is zero."""
    return 0.0, 0.0, 0, 0, 0, 0


class CacheModel(RuleBasedStateMachine):
    """The simulator against the per-line reference, any operation order."""

    @initialize(ways=st.sampled_from([1, 2, 4]), num_sets=st.sampled_from([3, 5, 8, 13]))
    def build(self, ways, num_sets):
        self.sim = DramCacheSim(
            num_sets * ways * LINE, LINES * LINE, line_size=LINE, ways=ways
        )
        self.ref = ScalarAssocCache(num_sets, ways, LINE)
        self.expected = CacheStats()

    def _range(self, span):
        first, count, head, tail, from_end = span
        if from_end is not None:
            target = (self.sim.num_sets - 1 - from_end) % self.sim.num_sets
            first -= (first - target) % self.sim.num_sets
            if first < 0:
                first += self.sim.num_sets
        count = min(count, LINES - first)
        addr = first * LINE + head
        return addr, max(1, (first + count - 1) * LINE + tail - addr)

    def _check(self, got, expected):
        """One range's (hits, clean, dirty) against the reference's."""
        assert got == expected
        self.expected = CacheStats(
            *(a + b for a, b in zip(astuple(self.expected), expected))
        )

    @rule(span=spans, is_write=st.booleans())
    def access(self, span, is_write):
        addr, size = self._range(span)
        result = self.sim.access_range(addr, size, is_write=is_write)
        self._check(
            (result.hits, result.clean_misses, result.dirty_misses),
            self.ref.access(addr, size, is_write),
        )

    def _walk(self, batch):
        """One unpriced ``walk_spans`` call over a batch of ``(first line,
        lines, is_write)`` spans: its ``stats`` delta must be the summed
        counts of the reference walking each span line by line."""
        before = self.sim.stats.snapshot()
        self.sim.walk_spans(batch, {}, unpriced, 1.0)
        counts = [
            self.ref.access(first * LINE, lines * LINE, is_write)
            for first, lines, is_write in batch
        ]
        walked = CacheStats(*map(sum, zip(*counts)))
        assert self.sim.stats - before == walked
        self.expected = CacheStats(
            *(a + b for a, b in zip(astuple(self.expected), astuple(walked)))
        )

    @rule(batch=st.lists(st.tuples(spans, st.booleans()), min_size=1, max_size=4))
    def batch(self, batch):
        ranges = [(*self._range(span), is_write) for span, is_write in batch]
        self._walk([
            (*self.sim.line_span(addr, size), is_write)
            for addr, size, is_write in ranges
        ])

    @rule(
        first=st.integers(0, LINES - 1),
        lines=st.integers(1, 16) | st.integers(1, LINES),
        is_write=st.booleans(),
        copies=st.integers(0, 3),
        tail=st.none() | st.tuples(st.integers(1, 16), st.booleans()),
    )
    def repeated_passes(self, first, lines, is_write, copies, tail):
        """What a kernel hands the walk for one operand: a line span (it
        may fit the set array or run past it), then ``copies`` more full
        passes as the same tuple, then a tail span that starts with it and
        is no longer, with either write flag — all in one ``walk_spans``
        call, as a kernel makes it. The walk answers a repeat in closed
        form when the span fits a direct-mapped set array; the reference
        walks every line."""
        whole = (first, min(lines, LINES - first), is_write)
        batch = [whole] * (copies + 1)
        if tail is not None:
            lines, tail_write = tail
            batch.append((first, min(lines, whole[1]), tail_write))
        self._walk(batch)

    @rule(span=spans)
    def invalidate_range(self, span):
        addr, size = self._range(span)
        self.sim.invalidate_range(addr, size)
        self.ref.invalidate(addr, size)

    @rule(span=spans)
    def resident_fraction(self, span):
        addr, size = self._range(span)
        assert self.sim.resident_fraction(addr, size) == (
            self.ref.resident_fraction(addr, size)
        )

    @rule()
    def reset(self):
        self.sim.reset()
        self.ref.reset()
        self.expected = CacheStats()

    @invariant()
    def counters_agree(self):
        assert self.sim.dirty_lines() == self.ref.dirty_lines()
        assert self.sim.stats == self.expected

    @invariant()
    def runs_are_well_formed(self):
        self.sim.check_invariants()

    def teardown(self):
        """Per-line sweep: residency, then dirty state (read destructively:
        dropping a line lowers the dirty count iff it was dirty)."""
        for line in range(LINES):
            addr = line * LINE
            assert self.sim.resident_fraction(addr, LINE) == (
                self.ref.resident_fraction(addr, LINE)
            )
            before = self.sim.dirty_lines()
            self.sim.invalidate_range(addr, LINE)
            assert before - self.sim.dirty_lines() == self.ref.is_dirty(line)


def test_matches_scalar_reference():
    run_state_machine_as_test(
        CacheModel,
        settings=settings(
            max_examples=120,
            stateful_step_count=30,
            deadline=None,
            # A tag bug trips many asserts at once, and explaining each
            # shrunk failure re-runs the machine for minutes.
            phases=set(Phase) - {Phase.explain},
        ),
    )


@given(access_sequences())
@settings(max_examples=40, deadline=None)
def test_traffic_identities(accesses):
    """Structural identities that hold for any access pattern."""
    line = 64
    sim = DramCacheSim(8 * line, 16384, line_size=line)
    for addr, size, is_write in accesses:
        size = min(size, 16384 - addr)
        if size <= 0:
            continue
        result = sim.access_range(addr, size, is_write=is_write)
        misses = result.clean_misses + result.dirty_misses
        lines_touched = (addr + size - 1) // line - addr // line + 1
        assert result.hits + misses == lines_touched
        assert result.nvram_read_bytes == misses * line  # write-allocate
        assert result.nvram_write_bytes == result.dirty_misses * line
        assert result.dram_bytes == (
            lines_touched * line + misses * line + result.dirty_misses * line
        )
    assert sim.dirty_lines() <= sim.num_sets


@given(st.sampled_from([64, 256, 1024]), st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_hit_ratio_line_size_invariant_for_streaming(line, seed):
    """For bulk streaming sweeps, hit/miss *ratios* do not depend on the
    line size — the justification for simulating 2LM at 4 KiB lines
    (DESIGN.md section 2)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    cache_bytes = 64 * 1024
    backing = 1024 * 1024
    # A streaming workload: whole-tensor sweeps, tensor sizes >> any line.
    tensors = [
        (int(rng.integers(0, 64)) * 16 * 1024, 16 * 1024) for _ in range(24)
    ]
    ratios = {}
    for line_size in (line, 4096):
        sim = DramCacheSim(cache_bytes, backing, line_size=line_size)
        for offset, size in tensors:
            sim.access_range(offset, size, is_write=bool(offset % 2))
        ratios[line_size] = sim.stats.hit_rate
    assert ratios[line] == pytest.approx(ratios[4096], abs=0.06)

"""Bandwidth models: the device characteristics the paper relies on."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.bandwidth import (
    ConstantBandwidth,
    ParallelismCurveBandwidth,
    TransferKind,
    copy_time,
    dram_bandwidth_model,
    optane_bandwidth_model,
    optimal_copy_threads,
)
from repro.units import GB, MiB


class TestConstantBandwidth:
    def test_read_write_distinct(self):
        model = ConstantBandwidth(read=100 * GB, write=80 * GB)
        assert model.peak(TransferKind.READ) == 100 * GB
        assert model.peak(TransferKind.WRITE) == 80 * GB
        assert model.peak(TransferKind.WRITE_NT) == 80 * GB

    def test_threads_do_not_matter(self):
        model = ConstantBandwidth()
        assert model.peak(TransferKind.READ, 1) == model.peak(TransferKind.READ, 28)

    def test_transfer_time_zero_bytes(self):
        assert ConstantBandwidth().transfer_time(TransferKind.READ, 0) == 0.0

    def test_transfer_time_linear_in_size(self):
        model = ConstantBandwidth(read=1 * GB, setup_latency=0.0)
        t1 = model.transfer_time(TransferKind.READ, GB)
        t2 = model.transfer_time(TransferKind.READ, 2 * GB)
        assert t2 == pytest.approx(2 * t1)
        assert t1 == pytest.approx(1.0)

    def test_setup_latency_penalises_small_transfers(self):
        model = ConstantBandwidth(read=1 * GB, setup_latency=1e-3)
        small = MiB / model.transfer_time(TransferKind.READ, 1 * MiB)
        large = GB / model.transfer_time(TransferKind.READ, 1 * GB)
        assert small < large < 1 * GB + 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="transfer size must be positive, got -1"):
            ConstantBandwidth().transfer_time(TransferKind.READ, -1)
        with pytest.raises(ValueError, match="transfer size must be positive, got -1"):
            copy_time(ConstantBandwidth(), ConstantBandwidth(), -1)


class TestOptaneCurve:
    """The four Section III-D device characteristics."""

    def setup_method(self):
        self.model = optane_bandwidth_model()
        self.dram = dram_bandwidth_model()

    def test_nvram_writes_slower_than_reads(self):
        read = self.model.peak(TransferKind.READ, 16)
        write = self.model.peak(TransferKind.WRITE_NT, 4)
        assert write < read / 2

    def test_nvram_reads_not_much_slower_than_dram(self):
        nvram_read = self.model.peak(TransferKind.READ, 16)
        dram_read = self.dram.peak(TransferKind.READ)
        assert nvram_read > dram_read / 4  # "not much slower"

    def test_temporal_writes_derated_vs_nt(self):
        nt = self.model.peak(TransferKind.WRITE_NT, 4)
        temporal = self.model.peak(TransferKind.WRITE, 4)
        assert temporal == pytest.approx(nt / self.model.temporal_write_derate)

    def test_write_bandwidth_degrades_with_parallelism(self):
        best = self.model.peak(TransferKind.WRITE_NT, 4)
        over = self.model.peak(TransferKind.WRITE_NT, 28)
        assert over < best

    def test_write_bandwidth_ramps_up_to_best(self):
        one = self.model.peak(TransferKind.WRITE_NT, 1)
        four = self.model.peak(TransferKind.WRITE_NT, 4)
        assert one < four

    def test_read_peaks_at_more_threads_than_writes(self):
        assert self.model.best_threads_read > self.model.best_threads_write

    def test_invalid_threads_rejected(self):
        with pytest.raises(ValueError):
            self.model.peak(TransferKind.READ, 0)

    @given(st.integers(min_value=1, max_value=64))
    def test_bandwidth_always_positive(self, threads):
        for kind in TransferKind:
            assert self.model.peak(kind, threads) > 0


class TestCopyModel:
    def test_copy_rate_harmonic_combination(self):
        dram = dram_bandwidth_model(setup_latency=0.0)
        nvram = optane_bandwidth_model(setup_latency=0.0)
        rate = GB / copy_time(dram, nvram, GB, threads=4)
        read = dram.peak(TransferKind.READ, 4)
        write = nvram.peak(TransferKind.WRITE_NT, 4)
        assert rate == pytest.approx(1.0 / (1.0 / read + 1.0 / write))
        assert rate < min(read, write)

    def test_copy_toward_nvram_slower_than_from(self):
        dram = dram_bandwidth_model()
        nvram = optane_bandwidth_model()
        to_nvram = copy_time(dram, nvram, GB, optimal_copy_threads(dram, nvram, 8))
        from_nvram = copy_time(nvram, dram, GB, optimal_copy_threads(nvram, dram, 8))
        assert to_nvram > from_nvram

    def test_copy_time_zero_bytes(self):
        assert copy_time(dram_bandwidth_model(), optane_bandwidth_model(), 0) == 0.0

    def test_optimal_threads_to_nvram_is_small(self):
        dram = dram_bandwidth_model()
        nvram = optane_bandwidth_model()
        threads = optimal_copy_threads(dram, nvram, max_threads=28)
        # NVRAM NT-write bandwidth peaks at ~4 threads and then degrades.
        assert threads == nvram.best_threads_write

    def test_optimal_threads_from_nvram_larger(self):
        dram = dram_bandwidth_model()
        nvram = optane_bandwidth_model()
        to_threads = optimal_copy_threads(dram, nvram, max_threads=28)
        from_threads = optimal_copy_threads(nvram, dram, max_threads=28)
        assert from_threads > to_threads

    def test_optimal_threads_respects_cap(self):
        dram = dram_bandwidth_model()
        nvram = optane_bandwidth_model()
        assert optimal_copy_threads(nvram, dram, max_threads=2) <= 2

    def test_optimal_threads_invalid_cap(self):
        with pytest.raises(ValueError):
            optimal_copy_threads(dram_bandwidth_model(), dram_bandwidth_model(), 0)

    def test_paper_magnitudes(self):
        """Eviction copies land near the ~10 GB/s of [4]; fills faster."""
        dram = dram_bandwidth_model(setup_latency=0.0)
        nvram = optane_bandwidth_model(setup_latency=0.0)
        to_bw = GB / copy_time(dram, nvram, GB, optimal_copy_threads(dram, nvram, 8))
        from_bw = GB / copy_time(nvram, dram, GB, optimal_copy_threads(nvram, dram, 8))
        assert 8 * GB < to_bw < 14 * GB
        assert 12 * GB < from_bw < 30 * GB



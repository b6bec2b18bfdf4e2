"""Kernel cost model: roofline + NVRAM stall semantics."""

import pytest

from repro.memory.device import MemoryDevice
from repro.runtime.kernel import (
    PEAK_FLOPS,
    ExecutionParams,
    KernelTiming,
    kernel_timing,
)
from repro.units import GB, MiB

PARAMS = ExecutionParams(launch_overhead=0.0)
ONE_SECOND = PEAK_FLOPS  # flops of one second of compute
DRAM = MemoryDevice.dram(GB)
NVRAM = MemoryDevice.nvram(GB)


def test_pure_compute():
    timing = kernel_timing(ONE_SECOND, [], [], PARAMS)
    assert timing.total == pytest.approx(1.0)
    assert timing.total <= timing.compute


def test_dram_traffic_overlaps_with_compute():
    timing = kernel_timing(ONE_SECOND, [(DRAM, 10 * MiB)], [], PARAMS)
    assert timing.total == pytest.approx(1.0)  # hidden under compute


def test_dram_bound_kernel():
    timing = kernel_timing(1e6, [(DRAM, GB)], [(DRAM, GB)], PARAMS)
    assert timing.total == pytest.approx(timing.dram)
    assert timing.total > timing.compute


def test_nvram_reads_stall_when_sensitive():
    compute_only = kernel_timing(ONE_SECOND, [], [], PARAMS).total
    timing = kernel_timing(ONE_SECOND, [(NVRAM, GB)], [], PARAMS, read_sensitivity=1.0)
    assert timing.total > compute_only
    assert timing.nvram > 0


def test_nvram_reads_hidden_when_insensitive():
    timing = kernel_timing(ONE_SECOND, [(NVRAM, MiB)], [], PARAMS, read_sensitivity=0.0)
    assert timing.nvram == 0.0
    assert timing.total == pytest.approx(1.0)


def test_sensitivity_interpolates():
    full = kernel_timing(0, [(NVRAM, GB)], [], PARAMS, read_sensitivity=1.0)
    half = kernel_timing(0, [(NVRAM, GB)], [], PARAMS, read_sensitivity=0.5)
    assert half.nvram == pytest.approx(full.nvram / 2)
    assert half.dram == pytest.approx(full.nvram / 2)  # hidden part overlaps


def test_sensitivity_bounds_checked():
    with pytest.raises(ValueError):
        kernel_timing(0, [], [], PARAMS, read_sensitivity=1.5)


def test_nvram_writes_always_stall():
    timing = kernel_timing(ONE_SECOND, [], [(NVRAM, GB)], PARAMS, read_sensitivity=0.0)
    assert timing.nvram > 0
    assert timing.total > 1.0


def test_nvram_write_slower_than_dram_write():
    nvram = kernel_timing(0, [], [(NVRAM, GB)], PARAMS)
    dram = kernel_timing(0, [], [(DRAM, GB)], PARAMS)
    assert nvram.total > dram.total


def test_zero_byte_operands_skipped():
    timing = kernel_timing(0, [(DRAM, 0)], [(NVRAM, 0)], PARAMS)
    assert timing.total == 0.0


def test_launch_overhead_charged_as_compute():
    params = ExecutionParams(launch_overhead=0.25)
    timing = kernel_timing(0, [], [], params)
    assert timing.compute == pytest.approx(0.25)


def test_timing_decomposition_consistent():
    timing = KernelTiming(compute=1.0, dram=2.0, nvram=0.5)
    assert timing.memory == 2.5
    assert timing.total == pytest.approx(2.5)  # max(1,2) + 0.5

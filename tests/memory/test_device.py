"""Memory devices: presets, real/virtual backing, views."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memory.device import MemoryDevice, MemoryKind
from repro.sim.bandwidth import TransferKind
from repro.units import KiB, MiB


def test_dram_preset():
    device = MemoryDevice.dram("1 MiB")
    assert device.kind is MemoryKind.DRAM
    assert device.capacity == MiB
    assert not device.is_real


def test_nvram_preset():
    device = MemoryDevice.nvram(2 * MiB, name="PMEM0")
    assert device.kind is MemoryKind.NVRAM
    assert device.name == "PMEM0"


def test_capacity_parsing():
    assert MemoryDevice.dram("64 KiB").capacity == 64 * KiB


def test_zero_capacity_rejected():
    with pytest.raises(ConfigurationError):
        MemoryDevice.dram(0)


def test_virtual_view_rejected():
    device = MemoryDevice.dram(MiB)
    with pytest.raises(ConfigurationError):
        device.view(0, 64)


def test_real_view_roundtrip():
    device = MemoryDevice.dram(64 * KiB, real=True)
    view = device.view(128, 16)
    view[:] = np.arange(16, dtype=np.uint8)
    again = device.view(128, 16)
    assert np.array_equal(again, np.arange(16, dtype=np.uint8))


def test_view_is_zero_copy():
    device = MemoryDevice.dram(64 * KiB, real=True)
    a = device.view(0, 64)
    b = device.view(0, 64)
    a[0] = 42
    assert b[0] == 42


def test_view_bounds_checked():
    device = MemoryDevice.dram(KiB, real=True)
    with pytest.raises(ConfigurationError):
        device.view(KiB - 10, 20)
    with pytest.raises(ConfigurationError):
        device.view(-1, 4)


def test_nvram_write_slower_than_read():
    seconds = MemoryDevice.nvram(MiB).bandwidth.transfer_time
    assert seconds(TransferKind.WRITE, MiB, 4) > seconds(TransferKind.READ, MiB, 4)


def test_nt_stores_faster_than_temporal():
    seconds = MemoryDevice.nvram(MiB).bandwidth.transfer_time
    assert seconds(TransferKind.WRITE_NT, MiB, 4) < seconds(TransferKind.WRITE, MiB, 4)


def test_zero_byte_transfers_free():
    seconds = MemoryDevice.dram(MiB).bandwidth.transfer_time
    assert seconds(TransferKind.READ, 0) == 0.0
    assert seconds(TransferKind.WRITE, 0) == 0.0


def test_repr_mentions_backing():
    assert "virtual" in repr(MemoryDevice.dram(MiB))
    assert "real" in repr(MemoryDevice.dram(MiB, real=True))

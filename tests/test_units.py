"""Size/rate/time units and parsing."""

import pytest

from repro.units import (
    GB,
    GiB,
    KiB,
    MiB,
    format_size,
    parse_size,
)


class TestParseSize:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0", 0),
            ("1024", 1024),
            ("1 KiB", 1024),
            ("64KiB", 64 * 1024),
            ("1 MiB", 1024**2),
            ("2 GiB", 2 * 1024**3),
            ("1 TiB", 1024**4),
            ("1 KB", 1000),
            ("180 GB", 180 * 10**9),
            ("1.5 TB", int(1.5 * 10**12)),
            ("2k", 2048),
            ("3M", 3 * 1024**2),
            ("0.5 GiB", 512 * 1024**2),
            ("  7 mib  ", 7 * 1024**2),
        ],
    )
    def test_strings(self, text, expected):
        assert parse_size(text) == expected

    def test_numbers_pass_through(self):
        assert parse_size(4096) == 4096
        assert parse_size(1.5) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_size(-1)

    @pytest.mark.parametrize("bad", ["", "GB", "12 XB", "1..5 GB", "1 GB extra"])
    def test_garbage_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)


class TestFormat:
    def test_format_size_decimal(self):
        assert format_size(2 * GB) == "2.00 GB"
        assert format_size(1500) == "1.50 KB"
        assert format_size(10) == "10 B"

    def test_format_size_binary(self):
        assert format_size(GiB, decimal=False) == "1.00 GiB"
        assert format_size(KiB, decimal=False) == "1.00 KiB"

    def test_format_size_negative(self):
        assert format_size(-2 * GB) == "-2.00 GB"


def test_constants_consistent():
    assert MiB == 1024 * KiB
    assert GiB == 1024 * MiB
    assert GB == 1000**3

"""Byte-size and rate units, parsing, and human-readable formatting.

The paper reports capacities in GB/GiB and bandwidths in GB/s; experiments are
configured with strings like ``"180 GB"`` so configuration files read like the
paper. Binary (KiB/MiB/GiB/TiB) and decimal (KB/MB/GB/TB) prefixes are both
supported and kept distinct, matching the paper's mixed usage (DIMM capacities
are binary, traffic volumes decimal).
"""

from __future__ import annotations

import re

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "KB",
    "MB",
    "GB",
    "TB",
    "parse_size",
    "format_size",
]

KiB = 1024
MiB = 1024**2
GiB = 1024**3
TiB = 1024**4

KB = 1000
MB = 1000**2
GB = 1000**3
TB = 1000**4

_SUFFIXES: dict[str, int] = {
    "b": 1,
    "kib": KiB,
    "mib": MiB,
    "gib": GiB,
    "tib": TiB,
    "kb": KB,
    "mb": MB,
    "gb": GB,
    "tb": TB,
    "k": KiB,
    "m": MiB,
    "g": GiB,
    "t": TiB,
}

_SIZE_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z]*)\s*$")


def parse_size(text: str | int | float) -> int:
    """Parse a size like ``"180 GB"``, ``"64KiB"`` or a plain number of bytes.

    Bare ``K``/``M``/``G``/``T`` suffixes are binary, following allocator
    convention. Raises ``ValueError`` on unknown suffixes or negative values.
    """
    if isinstance(text, (int, float)):
        if text < 0:
            raise ValueError(f"size must be non-negative, got {text}")
        return int(text)
    match = _SIZE_RE.match(text)
    if match is None:
        raise ValueError(f"cannot parse size {text!r}")
    value = float(match.group(1))
    suffix = match.group(2).lower() or "b"
    if suffix not in _SUFFIXES:
        raise ValueError(f"unknown size suffix {match.group(2)!r} in {text!r}")
    return int(value * _SUFFIXES[suffix])


def format_size(nbytes: float, *, decimal: bool = True) -> str:
    """Format a byte count the way the paper reports traffic (decimal GB)."""
    if nbytes < 0:
        return "-" + format_size(-nbytes, decimal=decimal)
    units = (
        [("TB", TB), ("GB", GB), ("MB", MB), ("KB", KB)]
        if decimal
        else [("TiB", TiB), ("GiB", GiB), ("MiB", MiB), ("KiB", KiB)]
    )
    for name, factor in units:
        if nbytes >= factor:
            return f"{nbytes / factor:.2f} {name}"
    return f"{int(nbytes)} B"

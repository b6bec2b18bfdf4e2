"""Allocator block bookkeeping.

A :class:`Block` is a half-open byte range ``[offset, offset + size)`` inside
one heap's arena, either free or allocated. Blocks never overlap and always
tile the arena exactly; the allocator owns and enforces those invariants. The
allocator keeps its blocks as boundary tags, not objects: a ``Block`` is a
view it builds on request (``blocks()``, ``live_blocks()``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Block"]


@dataclass(eq=False, slots=True)
class Block:
    """A contiguous byte range in a heap arena.

    Identity equality (``eq=False``): a block is a snapshot of allocator
    state, and value-comparing two snapshots is never meaningful.
    """

    offset: int
    size: int
    free: bool

    @property
    def end(self) -> int:
        """One past the last byte of this block."""
        return self.offset + self.size

    def __repr__(self) -> str:
        state = "free" if self.free else "used"
        return f"Block[{self.offset:#x}:{self.end:#x}] ({self.size} B, {state})"

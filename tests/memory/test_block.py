"""Block range arithmetic."""

from repro.memory.block import Block


def test_end():
    assert Block(offset=10, size=5, free=True).end == 15


def test_repr_shows_state():
    assert "free" in repr(Block(0, 64, True))
    assert "used" in repr(Block(0, 64, False))

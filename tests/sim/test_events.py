"""The discrete-event queue under the multi-stream scheduler."""

import math

import pytest

from repro.sim.events import EventQueue, ScheduledEvent


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, "c")
        queue.push(1.0, "a")
        queue.push(2.0, "b")
        assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        queue = EventQueue()
        for payload in ("first", "second", "third"):
            queue.push(1.0, payload)
        assert [queue.pop().payload for _ in range(3)] == [
            "first", "second", "third",
        ]

    def test_interleaved_push_pop_keeps_fifo_among_ties(self):
        queue = EventQueue()
        queue.push(1.0, "a")
        queue.push(1.0, "b")
        assert queue.pop().payload == "a"
        # A later push at the same time must sort *after* the survivor.
        queue.push(1.0, "c")
        assert queue.pop().payload == "b"
        assert queue.pop().payload == "c"

    def test_scheduled_event_comparison(self):
        early = ScheduledEvent(1.0, 5, "x")
        late = ScheduledEvent(2.0, 1, "y")
        assert early < late
        assert ScheduledEvent(1.0, 1, "a") < ScheduledEvent(1.0, 2, "b")


class TestQueueApi:
    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(0.0, "x")
        assert queue
        assert len(queue) == 1

    def test_rejects_nan_time(self):
        with pytest.raises(ValueError):
            EventQueue().push(math.nan, "x")

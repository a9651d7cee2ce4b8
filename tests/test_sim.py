"""Tests for the discrete-event simulation primitives."""

import pytest

from repro.errors import SimulationError
from repro.hw.sim import ReadyQueue, Resource


class TestResource:
    def test_occupy_until(self):
        r = Resource()
        r.occupy_until(9)
        assert r.next_free == 9
        r.occupy_until(4)  # never moves backwards
        assert r.next_free == 9


class TestReadyQueue:
    def test_orders_by_ready(self):
        q = ReadyQueue()
        q.push(5, "b")
        q.push(1, "a")
        assert q.pop() == (1, "a")
        assert q.pop() == (5, "b")

    def test_fifo_ties(self):
        q = ReadyQueue()
        q.push(3, "first")
        q.push(3, "second")
        assert q.pop()[1] == "first"

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            ReadyQueue().pop()

    def test_len_and_bool(self):
        q = ReadyQueue()
        assert not q
        q.push(0, "x")
        assert len(q) == 1

    def test_peek_ready(self):
        q = ReadyQueue()
        assert q.peek_ready() is None
        q.push(7, "x")
        assert q.peek_ready() == 7

    def test_pop_or_requeue_defers_blocked_item(self):
        q = ReadyQueue()
        q.push(0, "blocked")   # its resource is busy until 100
        q.push(10, "runnable")
        starts = {"blocked": 100, "runnable": 10}
        result = q.pop_or_requeue(lambda item: starts[item])
        assert result is None  # blocked item re-keyed at 100
        start, item = q.pop_or_requeue(lambda item: starts[item])
        assert item == "runnable"
        assert start == 10
        start, item = q.pop_or_requeue(lambda item: starts[item])
        assert item == "blocked"
        assert start == 100

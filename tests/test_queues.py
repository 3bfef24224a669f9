"""Tests for the drop-tail FIFO queues."""

import pytest
from hypothesis import given, strategies as st

from repro.mac.queues import DEFAULT_CAPACITY, FifoQueue, QueueDropError


class TestBasics:
    def test_default_capacity_is_50(self):
        assert DEFAULT_CAPACITY == 50
        assert FifoQueue().capacity == 50

    def test_fifo_order(self):
        queue = FifoQueue()
        for i in range(5):
            queue.push(i)
        assert [queue.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_peek_does_not_remove(self):
        queue = FifoQueue()
        queue.push("a")
        assert queue.peek() == "a"
        assert len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            FifoQueue().pop()

    def test_is_empty_and_full(self):
        queue = FifoQueue(capacity=2)
        assert queue.is_empty()
        queue.push(1)
        queue.push(2)
        assert queue.is_full()

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            FifoQueue(capacity=0)


class TestDropTail:
    def test_push_to_full_drops(self):
        queue = FifoQueue(capacity=1)
        assert queue.push(1)
        assert not queue.push(2)
        assert queue.pop() == 1
        assert queue.is_empty()

    def test_strict_push_raises(self):
        queue = FifoQueue(capacity=1)
        queue.push(1)
        with pytest.raises(QueueDropError):
            queue.push(2, strict=True)

    def test_drop_counter(self):
        queue = FifoQueue(capacity=1)
        queue.push(1)
        queue.push(2)
        queue.push(3)
        assert queue.dropped == 2

    def test_enqueue_dequeue_counters(self):
        queue = FifoQueue()
        queue.push(1)
        queue.push(2)
        queue.pop()
        assert queue.enqueued == 2
        assert queue.dequeued == 1


class TestProperties:
    @given(st.lists(st.integers(), max_size=200))
    def test_property_occupancy_never_exceeds_capacity(self, items):
        queue = FifoQueue(capacity=10)
        for item in items:
            queue.push(item)
        assert len(queue) <= 10

    @given(st.lists(st.integers(), min_size=1, max_size=100))
    def test_property_accepted_items_preserve_order(self, items):
        queue = FifoQueue(capacity=1000)
        for item in items:
            queue.push(item)
        drained = [queue.pop() for _ in range(len(queue))]
        assert drained == items

    @given(st.lists(st.booleans(), max_size=300))
    def test_property_counters_consistent(self, operations):
        queue = FifoQueue(capacity=5)
        for is_push in operations:
            if is_push:
                queue.push(0)
            elif not queue.is_empty():
                queue.pop()
        assert queue.enqueued - queue.dequeued == len(queue)
        assert queue.enqueued + queue.dropped == sum(1 for op in operations if op)

"""Drop-tail FIFO interface queues.

The paper's hardware has 50-packet MAC buffers; every queue here defaults
to that capacity. A queue counts what it enqueues, drops and dequeues;
the buffer-evolution figures (Figures 1 and 4) sample node occupancy
through :class:`~repro.metrics.sampling.BufferSampler`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

DEFAULT_CAPACITY = 50


class QueueDropError(Exception):
    """Raised by ``push(..., strict=True)`` when the queue is full."""


class FifoQueue:
    """Bounded FIFO with drop-tail semantics and occupancy accounting."""

    def __init__(self, name: str = "queue", capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        self._items: Deque = deque()
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def occupancy(self) -> int:
        return len(self._items)

    def is_empty(self) -> bool:
        """True when no packet is queued."""
        return not self._items

    def is_full(self) -> bool:
        """True when at capacity (next push would drop)."""
        return len(self._items) >= self.capacity

    def push(self, item, strict: bool = False) -> bool:
        """Append ``item``; drop it (return False) when full.

        With ``strict=True`` a full queue raises :class:`QueueDropError`
        instead of silently dropping.
        """
        if len(self._items) >= self.capacity:
            self.dropped += 1
            if strict:
                raise QueueDropError(f"{self.name} full (capacity {self.capacity})")
            return False
        self._items.append(item)
        self.enqueued += 1
        return True

    def pop(self):
        """Remove and return the head item (raises IndexError when empty)."""
        item = self._items.popleft()
        self.dequeued += 1
        return item

    def peek(self):
        """Return the head item without removing it."""
        return self._items[0]

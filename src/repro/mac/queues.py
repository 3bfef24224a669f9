"""Drop-tail FIFO interface queues.

The paper's hardware has 50-packet MAC buffers; every queue here defaults
to that capacity. Occupancy is traced so buffer-evolution figures
(Figures 1 and 4) can be regenerated.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.tracing import TimeSeries, TraceRecorder, _noop

DEFAULT_CAPACITY = 50


class QueueDropError(Exception):
    """Raised by ``push(..., strict=True)`` when the queue is full."""


class FifoQueue:
    """Bounded FIFO with drop-tail semantics and occupancy accounting."""

    def __init__(
        self,
        name: str = "queue",
        capacity: int = DEFAULT_CAPACITY,
        trace: Optional[TraceRecorder] = None,
        engine=None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity = capacity
        self.trace = trace
        self.engine = engine
        self._items: Deque = deque()
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        # Occupancy is recorded on every push/pop; resolve the series
        # and key once instead of formatting/looking them up per packet.
        # Both collapse to nothing when the experiment declared it does
        # not consume per-queue instrumentation.
        self._drop_key = f"{name}.drops"
        self._bump_drop = _noop if trace is None else trace.counter_hook(self._drop_key)
        if (
            trace is not None
            and engine is not None
            and trace.wants(f"{name}.occupancy")
        ):
            self._occupancy = trace.series.setdefault(f"{name}.occupancy", TimeSeries())
        else:
            self._occupancy = None

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
            self._bump_drop()
            if strict:
                raise QueueDropError(f"{self.name} full (capacity {self.capacity})")
            return False
        items = self._items
        items.append(item)
        self.enqueued += 1
        series = self._occupancy
        if series is not None:
            # Inlined TimeSeries.append: engine time is monotone, so the
            # ordering check is redundant on this per-packet path.
            series.times.append(self.engine.now)
            series.values.append(len(items))
        return True

    def pop(self):
        """Remove and return the head item (raises IndexError when empty)."""
        items = self._items
        item = items.popleft()
        self.dequeued += 1
        series = self._occupancy
        if series is not None:
            series.times.append(self.engine.now)
            series.values.append(len(items))
        return item

    def peek(self):
        """Return the head item without removing it."""
        return self._items[0]

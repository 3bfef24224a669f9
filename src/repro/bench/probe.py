"""Calibration probe: a fixed pure-Python loop timed between bench rounds.

This module imports nothing from ``repro``, and nothing outside the
standard library: the probe is the yardstick every case is normalised
by, so it cannot be code under test. A uniform slowdown of the engine
therefore shows in every case instead of cancelling out, while a
slower or busier CPU slows the probe and the case alike.

The loop runs the operations the simulator's hot paths are made of:
heap push and pop, dict updates, a method call and float arithmetic.
"""

from __future__ import annotations

import heapq
import time

#: Loop iterations of one probe (about 40-60 ms on a 2-vCPU Xeon VM).
PROBE_ITERATIONS = 60_000


class _Oscillator:
    __slots__ = ("gain", "offset")

    def __init__(self, gain: float, offset: float):
        self.gain = gain
        self.offset = offset

    def step(self, x: float) -> float:
        return (self.gain * x + self.offset) % 1000.0


def _work(iterations: int) -> float:
    heap = []
    counts = {}
    oscillator = _Oscillator(1.0001, 0.5)
    x = 0.0
    for i in range(iterations):
        heapq.heappush(heap, (x % 97.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        x = oscillator.step(x)
    return x + len(counts)


def probe_s() -> float:
    """Seconds one probe takes on this CPU, right now."""
    started = time.perf_counter()
    _work(PROBE_ITERATIONS)
    return time.perf_counter() - started

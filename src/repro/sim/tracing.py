"""Recorded time series.

``TimeSeries`` is an append-only (time, value) series with helpers for
windowed rates and time averages. Each recorded quantity lives with the
object that produces it: a flow keeps its delivery series, the buffer
sampler one series per sampled node, and the EZ-flow controller one
window history per successor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Tuple

from repro.sim.units import US_PER_S


class TimeSeries:
    """Append-only series of (tick, value) samples, sorted by time."""

    __slots__ = ("times", "values")

    def __init__(self):
        self.times: List[int] = []
        self.values: List[float] = []

    def append(self, time: int, value: float) -> None:
        """Add a sample; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError("samples must be appended in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return iter(zip(self.times, self.values))

    def window(self, start: int, end: int) -> "TimeSeries":
        """Samples with ``start <= t < end`` as a new series."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        out = TimeSeries()
        out.times = self.times[lo:hi]
        out.values = self.values[lo:hi]
        return out

    def count_in(self, start: int, end: int) -> int:
        """Number of samples with ``start <= t < end``."""
        return bisect_left(self.times, end) - bisect_left(self.times, start)

    def sum_in(self, start: int, end: int) -> float:
        """Sum of values of samples with ``start <= t < end``."""
        lo = bisect_left(self.times, start)
        hi = bisect_left(self.times, end)
        return float(sum(self.values[lo:hi]))

    def mean(self) -> float:
        """Plain mean of the sample values (0.0 when empty)."""
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def last_value_before(self, time: int, default: float = 0.0) -> float:
        """Value of the latest sample at or before ``time``."""
        idx = bisect_right(self.times, time) - 1
        if idx < 0:
            return default
        return self.values[idx]

    def time_average(self, start: int, end: int, initial: float = 0.0) -> float:
        """Time-weighted average of a piecewise-constant signal.

        The series is interpreted as the value taking ``values[i]`` from
        ``times[i]`` until the next sample. ``initial`` is the value before
        the first sample in the window.
        """
        if end <= start:
            return 0.0
        level = self.last_value_before(start, initial)
        total = 0.0
        prev = start
        lo = bisect_right(self.times, start)
        hi = bisect_left(self.times, end)
        for i in range(lo, hi):
            t = self.times[i]
            total += level * (t - prev)
            level = self.values[i]
            prev = t
        total += level * (end - prev)
        return total / (end - start)

    def binned_rate(self, start: int, end: int, bin_ticks: int) -> List[Tuple[float, float]]:
        """Event rate per second in consecutive bins.

        Each sample counts as one event weighted by its value (use value=1
        for counts, value=bits for bit rates). Returns a list of
        (bin_center_seconds, rate_per_second).
        """
        if bin_ticks <= 0:
            raise ValueError("bin_ticks must be positive")
        out: List[Tuple[float, float]] = []
        t = start
        while t < end:
            hi = min(t + bin_ticks, end)
            total = self.sum_in(t, hi)
            width_s = (hi - t) / US_PER_S
            center_s = (t + hi) / 2 / US_PER_S
            out.append((center_s, total / width_s if width_s > 0 else 0.0))
            t = hi
        return out

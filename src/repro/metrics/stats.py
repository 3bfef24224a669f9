"""Summary statistics for flows, matching the paper's table columns.

Tables 2 and 3 report per-flow mean throughput, the standard deviation
of the *windowed* throughput series (traffic smoothness — turbulence
shows up as a large deviation), and Jain's index across flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.net.flow import Flow


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation (0.0 for fewer than two samples)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((x - mu) ** 2 for x in values) / len(values))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must be in [0, 100]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = p / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


@dataclass
class FlowStats:
    """One row of a paper table."""

    flow_id: object
    mean_throughput_kbps: float
    stddev_throughput_kbps: float
    mean_delay_s: float
    delivered: int

    def __str__(self) -> str:
        return (
            f"{self.flow_id}: {self.mean_throughput_kbps:.1f} kb/s "
            f"(sd {self.stddev_throughput_kbps:.1f}), "
            f"delay {self.mean_delay_s:.2f} s, {self.delivered} pkts"
        )


def summarize_flow(
    flow: Flow,
    start_us: int,
    end_us: int,
    bin_s: float = 10.0,
) -> FlowStats:
    """Summarise a flow over a window, with throughput binned at ``bin_s``."""
    series = flow.throughput_series_kbps(start_us, end_us, bin_s)
    rates = [r for _, r in series]
    return FlowStats(
        flow_id=flow.flow_id,
        mean_throughput_kbps=flow.throughput_bps(start_us, end_us) / 1000.0,
        stddev_throughput_kbps=stddev(rates),
        mean_delay_s=flow.mean_delay_s(start_us, end_us),
        delivered=flow.delivered_bits.count_in(start_us, end_us),
    )

"""Order statistics for benchmark samples.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it, so a tail figure never rests on one or two lucky samples:
p50 needs 20 samples, p75 needs 40.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class QuantileRefused(ValueError):
    """Too few samples lie beyond the requested percentile."""


def quantile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank quantile; refuses when fewer than 10 samples lie beyond."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"quantile fraction must be in (0, 1), got {fraction}")
    n = len(values)
    rank = math.ceil(fraction * n)
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise QuantileRefused(
            f"p{fraction * 100:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)

"""Performance metrics: fairness, summary statistics, buffer sampling."""

from repro.metrics.fairness import jain_fairness_index
from repro.metrics.stats import (
    FlowStats,
    summarize_flow,
    mean,
    stddev,
    percentile,
)
from repro.metrics.sampling import BufferSampler
from repro.metrics.occupancy import group_mean_series

__all__ = [
    "group_mean_series",
    "jain_fairness_index",
    "FlowStats",
    "summarize_flow",
    "mean",
    "stddev",
    "percentile",
    "BufferSampler",
]

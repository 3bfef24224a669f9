"""Aggregate sampled buffer occupancy across node groups.

The generated-topology experiments report queue backlog *per hop ring*
(all nodes the same BFS distance from their gateway) rather than per
node — on a 49-node mesh, per-node tables are noise. The helper here
reduces a :class:`~repro.metrics.sampling.BufferSampler`'s per-node
series to a group's pointwise mean time series.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Tuple

from repro.metrics.sampling import BufferSampler


def group_mean_series(
    sampler: BufferSampler, node_ids: Iterable[Hashable]
) -> List[Tuple[float, float]]:
    """Pointwise mean occupancy of several nodes, as (seconds, value).

    Nodes are sampled by one scheduler callback, so their series share
    timestamps; truncation to the shortest series guards the final
    partial sample at the simulation horizon.
    """
    members = sorted(node_ids, key=str)
    series = [list(sampler.series_for(node)) for node in members]
    if not series or not series[0]:
        return []
    length = min(len(s) for s in series)
    points: List[Tuple[float, float]] = []
    for i in range(length):
        t = series[0][i][0]
        points.append((t / 1e6, sum(s[i][1] for s in series) / len(series)))
    return points

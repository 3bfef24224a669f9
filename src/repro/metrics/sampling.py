"""Periodic buffer-occupancy sampling (Figures 1 and 4).

The paper plots instantaneous relay-buffer occupancy over time. The
sampler polls chosen node stacks on a fixed cadence and keeps one
series per node in ``series``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional

from repro.net.node import NodeStack
from repro.sim.engine import Engine
from repro.sim.tracing import TimeSeries
from repro.sim.units import seconds


class BufferSampler:
    """Samples total buffer occupancy of selected nodes every interval."""

    def __init__(
        self,
        engine: Engine,
        nodes: Dict[Hashable, NodeStack],
        node_ids: Optional[Iterable[Hashable]] = None,
        interval_s: float = 1.0,
    ):
        self.engine = engine
        self.nodes = nodes
        self.node_ids = list(node_ids) if node_ids is not None else list(nodes)
        self.interval_us = seconds(interval_s)
        self.series: Dict[Hashable, TimeSeries] = {
            node_id: TimeSeries() for node_id in self.node_ids
        }
        self._started = False
        self._probes: List = []

    def start(self) -> None:
        """Begin periodic sampling (idempotence is enforced).

        Runs on the engine's periodic-callback path: the engine
        re-pushes the sampler after each firing with a fresh sequence
        number, which is ordering-identical to the callback re-posting
        itself (same ``(time, seq)`` stream, no RNG interaction) but
        skips a Python-level ``post`` per period.
        """
        if self._started:
            raise RuntimeError("sampler already started")
        self._started = True
        self._probes = [(self.nodes[n], self.series[n]) for n in self.node_ids]
        self.engine.post_periodic(0, self.interval_us, self._sample)

    def _sample(self) -> None:
        now = self.engine.now
        for stack, series in self._probes:
            series.append(now, stack.total_buffer_occupancy())

    def series_for(self, node_id: Hashable) -> TimeSeries:
        """The recorded occupancy series of one sampled node."""
        return self.series[node_id]

    def mean_occupancy(self, node_id: Hashable, start_us: int, end_us: int) -> float:
        """Average sampled occupancy over a window (Fig 4 caption numbers)."""
        window = self.series_for(node_id).window(start_us, end_us)
        return window.mean()

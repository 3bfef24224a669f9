"""Static penalty strategy from Aziz et al. [9] (SECON 2009).

Stabilises a K-hop chain by throttling the *source*: with relay
contention windows at ``cw_relay``, the source uses
``cw_source = cw_relay / q`` for a throttling factor ``q in (0, 1]``.
The drawback the paper highlights is that the right ``q`` is
topology-dependent — EZ-flow exists to discover it automatically. The
simulations indeed converge to the static solution (e.g. scenario 1
single-flow: relays at 2^4, source at 2^7).
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable

from repro.net.node import NodeStack


class PenaltyStrategy:
    """Fixed contention-window assignment: throttled source, fast relays."""

    def __init__(self, q: float, cw_relay: int = 16, maxcw: int = 32768):
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if cw_relay < 1 or cw_relay & (cw_relay - 1):
            raise ValueError("cw_relay must be a positive power of two")
        self.q = q
        self.cw_relay = cw_relay
        self.maxcw = maxcw

    def source_cw(self) -> int:
        """Source window = cw_relay / q, rounded up to a power of two."""
        target = self.cw_relay / self.q
        cw = self.cw_relay
        while cw < target and cw < self.maxcw:
            cw *= 2
        return cw

    def apply(self, nodes: Dict[Hashable, NodeStack], sources: Iterable[Hashable]) -> None:
        """Pin CWmin at every transmit entity: sources throttled, relays not."""
        source_set = set(sources)
        source_cw = self.source_cw()
        for node_id, stack in nodes.items():
            cw = source_cw if node_id in source_set else self.cw_relay
            for entity in stack.mac.entities:
                entity.set_cwmin(cw)


def apply_penalty(
    nodes: Dict[Hashable, NodeStack],
    sources: Iterable[Hashable],
    q: float,
    cw_relay: int = 16,
) -> PenaltyStrategy:
    """Convenience wrapper: build and apply a :class:`PenaltyStrategy`."""
    strategy = PenaltyStrategy(q, cw_relay)
    strategy.apply(nodes, sources)
    return strategy

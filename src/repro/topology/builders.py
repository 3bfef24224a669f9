"""Shared network container and construction helpers.

``Network`` bundles everything one simulation run needs: engine, channel,
routing, node stacks, flows, sources. Topology modules return a
fully wired ``Network``; experiment harnesses then optionally attach
EZ-flow (or a baseline) and run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.mac.dcf import DcfConfig
from repro.net.flow import Flow
from repro.net.node import NodeStack
from repro.net.routing import StaticRouting
from repro.phy.channel import Channel
from repro.phy.connectivity import ConnectivityMap
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

NodeId = Hashable


@dataclass
class Network:
    """A fully wired simulation network."""

    engine: Engine
    channel: Channel
    routing: StaticRouting
    nodes: Dict[NodeId, NodeStack]
    flows: Dict[Hashable, Flow]
    sources: List[object]
    rng: RngRegistry
    connectivity: ConnectivityMap
    description: str = ""

    def start_sources(self) -> None:
        """Start every registered traffic source (run() does this once)."""
        for source in self.sources:
            source.start()

    def run(self, until_us: int) -> None:
        """Start traffic (idempotent per network) and run to ``until_us``."""
        if not getattr(self, "_sources_started", False):
            self.start_sources()
            self._sources_started = True
        self.engine.run(until=until_us)

    def flow(self, flow_id: Hashable) -> Flow:
        """Look up a flow by id."""
        return self.flows[flow_id]

    def node(self, node_id: NodeId) -> NodeStack:
        """Look up a node stack by id."""
        return self.nodes[node_id]


def build_network(
    connectivity: ConnectivityMap,
    seed: int = 0,
    mac_config: Optional[DcfConfig] = None,
    description: str = "",
) -> Network:
    """Instantiate engine, channel and one stack per connectivity node."""
    engine = Engine()
    rng = RngRegistry(seed)
    channel = Channel(engine, connectivity, rng)
    routing = StaticRouting()
    nodes: Dict[NodeId, NodeStack] = {}
    for node_id in sorted(connectivity.nodes(), key=str):
        nodes[node_id] = NodeStack(
            engine,
            channel,
            routing,
            node_id,
            mac_config=mac_config,
            rng=rng,
        )
    return Network(
        engine=engine,
        channel=channel,
        routing=routing,
        nodes=nodes,
        flows={},
        sources=[],
        rng=rng,
        connectivity=connectivity,
        description=description,
    )


def build_chain_positions(
    count: int,
    spacing_m: float = 200.0,
    origin: Tuple[float, float] = (0.0, 0.0),
) -> Dict[int, Tuple[float, float]]:
    """Positions of ``count`` nodes on a straight line, ``spacing_m`` apart.

    With the default 250 m transmit / 550 m sensing radii, 200 m spacing
    gives the paper's canonical regime: nodes decode only their direct
    neighbours, sense two hops away, and are hidden three hops apart —
    the 2-hop interference model of Section 6.
    """
    if count < 2:
        raise ValueError("a chain needs at least two nodes")
    x0, y0 = origin
    return {i: (x0 + i * spacing_m, y0) for i in range(count)}

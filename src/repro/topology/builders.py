"""Shared network container and construction helpers.

``Network`` bundles everything one simulation run needs: engine, channel,
routing, node stacks, flows, sources. Topology modules return a
fully wired ``Network``; experiment harnesses then optionally attach
EZ-flow (or a baseline) and run it.

``Network.add_flow`` is the one place a paper flow is wired: it routes
the flow's path, registers the flow at its sink and appends its source,
so each paper layout is a table of (flow, path, start, stop) rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.mac.dcf import DcfConfig
from repro.net.flow import Flow
from repro.net.node import NodeStack
from repro.net.routing import StaticRouting
from repro.phy.channel import Channel
from repro.phy.connectivity import ConnectivityMap
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import seconds
from repro.traffic.sources import CbrSource, SaturatedSource

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

    def add_flow(
        self,
        flow_id: Hashable,
        path: Sequence[NodeId],
        rate_bps: Optional[float] = 2_000_000.0,
        start_s: float = 0.0,
        stop_s: Optional[float] = None,
    ) -> Flow:
        """Route ``path`` and load it with one flow from its head to its tail.

        The source is CBR at ``rate_bps`` (the paper's 2 Mb/s saturates
        every layout), or a :class:`SaturatedSource` when ``rate_bps`` is
        None; it sends from ``start_s`` until ``stop_s`` (None: never
        stops).
        """
        self.routing.install_path(path)
        src, dst = path[0], path[-1]
        flow = Flow(
            flow_id,
            src,
            dst,
            seconds(start_s),
            None if stop_s is None else seconds(stop_s),
        )
        self.flows[flow_id] = flow
        self.nodes[dst].register_flow(flow)
        if rate_bps is None:
            source = SaturatedSource(self.engine, self.nodes[src], flow)
        else:
            source = CbrSource(self.engine, self.nodes[src], flow, rate_bps)
        self.sources.append(source)
        return flow

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


def build_network(
    connectivity: ConnectivityMap,
    seed: int = 0,
    mac_config: Optional[DcfConfig] = None,
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
    )


def build_chain_positions(count: int) -> Dict[int, Tuple[float, float]]:
    """Positions of ``count`` nodes on the x-axis, 200 m apart.

    With the default 250 m transmit / 550 m sensing radii, 200 m spacing
    gives the paper's canonical regime: nodes decode only their direct
    neighbours, sense two hops away, and are hidden three hops apart —
    the 2-hop interference model of Section 6.
    """
    if count < 2:
        raise ValueError("a chain needs at least two nodes")
    return {i: (i * 200.0, 0.0) for i in range(count)}

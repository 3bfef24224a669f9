"""Linear K-hop chains (Figure 1, Section 6).

Node 0 is the saturated source, node K the sink, nodes 1..K-1 relays.
The paper's core instability result: chains of 4+ hops are turbulent
under standard 802.11, 3-hop chains are stable.
"""

from __future__ import annotations

from typing import Optional

from repro.mac.dcf import DcfConfig
from repro.net.flow import Flow
from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.sim.units import seconds
from repro.topology.builders import Network, build_chain_positions, build_network
from repro.traffic.sources import CbrSource, SaturatedSource


def linear_chain(
    hops: int,
    seed: int = 0,
    spacing_m: float = 200.0,
    saturated: bool = True,
    rate_bps: float = 2_000_000.0,
    packet_bytes: int = 1000,
    mac_config: Optional[DcfConfig] = None,
    start_s: float = 0.0,
    stop_s: Optional[float] = None,
    sense_range_m: float = 550.0,
) -> Network:
    """Build a K-hop chain with one flow 0 -> K.

    ``saturated=True`` uses the greedy access point of Figure 1 (source
    queue always full); otherwise a CBR source at ``rate_bps``.

    ``sense_range_m`` selects the carrier-sensing regime. The ns-2
    default (550 m = 2-hop sensing at 200 m spacing) is faithful to the
    paper's simulations; 350 m gives 1-hop sensing, the regime of the
    analytical model in Section 6 ([9]'s 2-hop interference model, where
    e.g. links 0 and 3 can fire in parallel) and the one that best
    matches the testbed's 3-hop-stable / 4-hop-turbulent contrast of
    Figure 1.
    """
    if hops < 1:
        raise ValueError("need at least one hop")
    node_count = hops + 1
    positions = build_chain_positions(node_count, spacing_m)
    connectivity = GeometricConnectivity(positions, RangeModel(250.0, sense_range_m))
    network = build_network(
        connectivity,
        seed=seed,
        mac_config=mac_config,
        description=f"linear {hops}-hop chain, {spacing_m:.0f} m spacing",
    )
    path = list(range(node_count))
    network.routing.install_path(path)

    flow = Flow(
        flow_id="F1",
        src=0,
        dst=hops,
        start_us=seconds(start_s),
        stop_us=None if stop_s is None else seconds(stop_s),
    )
    network.flows[flow.flow_id] = flow
    network.nodes[hops].register_flow(flow)
    if saturated:
        source = SaturatedSource(network.engine, network.nodes[0], flow, packet_bytes)
    else:
        source = CbrSource(network.engine, network.nodes[0], flow, rate_bps, packet_bytes)
    network.sources.append(source)
    return network

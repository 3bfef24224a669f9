"""Linear K-hop chains (Figure 1, Section 6).

Node 0 is the saturated source, node K the sink, nodes 1..K-1 relays.
The paper's core instability result: chains of 4+ hops are turbulent
under standard 802.11, 3-hop chains are stable.
"""

from __future__ import annotations

from typing import Optional

from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.topology.builders import Network, build_chain_positions, build_network


def linear_chain(
    hops: int,
    seed: int = 0,
    rate_bps: Optional[float] = None,
    sense_range_m: float = 550.0,
) -> Network:
    """Build a K-hop chain with one flow ``F1`` from node 0 to node K.

    ``rate_bps=None`` uses the greedy access point of Figure 1 (source
    queue always full); a rate gives a CBR source at ``rate_bps``.

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
    positions = build_chain_positions(hops + 1)
    connectivity = GeometricConnectivity(positions, RangeModel(250.0, sense_range_m))
    network = build_network(connectivity, seed=seed)
    network.add_flow("F1", list(range(hops + 1)), rate_bps=rate_bps)
    return network

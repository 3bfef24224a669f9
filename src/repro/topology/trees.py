"""Tree backhaul topologies (the conclusion's deployment model).

Section 7 argues that mesh backhauls are typically trees rooted at the
gateway, with each node forwarding to at most a handful of successors —
which is why EZ-flow's per-successor queues map onto the four 802.11e
MAC queues. ``tree_backhaul`` builds such a downlink tree: the gateway
at the root sends one flow to every leaf, so interior nodes genuinely
hold several per-successor forwarding queues and EZ-flow adapts each
window independently.

Geometry: the root sits at the origin; each level fans out with enough
angular separation that siblings carrier-sense each other near the
parent but are not in reception range (the junction regime of
scenario 1).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import Position, RangeModel
from repro.topology.builders import Network, build_network


def tree_positions(
    depth: int, fanout: int
) -> Tuple[Dict[int, Position], Dict[int, List[int]]]:
    """Node coordinates and child lists for a regular tree.

    Node 0 is the root; children are laid out on arcs of increasing
    radius, 200 m apart, each subtree confined to its own angular sector
    so sibling branches separate quickly.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    positions: Dict[int, Position] = {0: (0.0, 0.0)}
    children: Dict[int, List[int]] = {0: []}
    next_id = 1
    # (node, level, sector_start, sector_end) in radians
    frontier = [(0, 0, -math.pi / 3, math.pi / 3)]
    while frontier:
        node, level, lo, hi = frontier.pop(0)
        if level >= depth:
            continue
        width = (hi - lo) / fanout
        for i in range(fanout):
            angle = lo + (i + 0.5) * width
            radius = (level + 1) * 200.0
            child = next_id
            next_id += 1
            positions[child] = (
                radius * math.cos(angle),
                radius * math.sin(angle),
            )
            children[node].append(child)
            children[child] = []
            frontier.append((child, level + 1, lo + i * width, lo + (i + 1) * width))
    return positions, children


def tree_backhaul(
    depth: int = 3,
    fanout: int = 2,
    seed: int = 0,
    rate_bps: float = 400_000.0,
) -> Network:
    """Downlink tree: the gateway (root) streams one flow per leaf.

    The per-leaf CBR rate defaults to a fraction of channel capacity so
    the aggregate at the root saturates the medium — the regime where
    per-successor adaptation matters.
    """
    positions, children = tree_positions(depth, fanout)
    network = build_network(GeometricConnectivity(positions, RangeModel()), seed=seed)

    # One flow from the root to every leaf, routed along the tree.
    def walk(node: int, path: List[int]) -> None:
        path = path + [node]
        if not children[node]:
            network.add_flow(f"leaf{node}", path, rate_bps=rate_bps)
            return
        for child in children[node]:
            walk(child, path)

    for child in children[0]:
        walk(child, [0])
    return network

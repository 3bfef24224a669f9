"""Simulation scenario 2: three flows with a hidden-terminal source (Figure 9).

The paper's figure gives node labels but no coordinates; we reconstruct a
28-node layout that preserves every property the evaluation exercises:

* ``F1``: a long 9-hop flow N0 -> N1 -> ... -> N9 along the x-axis;
* ``F2``: an 8-hop flow N10 -> ... -> N18 on a chain slanting down from
  the upper right, whose tail lands 300 m above F1's *source* region —
  the last hops of F2 share the medium with the first hops of F1;
* ``F3``: an 8-hop flow N19 -> ... -> N27 mirrored below the axis, whose
  tail lands 300 m below F1's *sink* region;
* the source of F1 (N0) and the source of F2 (N10) are mutually hidden
  (1.8 km apart) yet their flows contend where F2's tail meets F1's
  head — the hidden-source configuration the paper highlights;
* N10 and N19 carrier-sense only their own two down-chain neighbours
  (the paper: "N10 only directly competes with two nodes"), while N0
  additionally senses F2's tail relays, making it the most contended
  source.

Paper timing: F1, F2 active from 5 s; F3 joins at 1805 s; F2 and F3
leave at 3605 s; the run ends at 4500 s with F1 alone again.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.topology.builders import Network, build_network

#: Paper activity windows (seconds).
F1_START_S, F1_STOP_S = 5.0, 4500.0
F2_START_S, F2_STOP_S = 5.0, 3605.0
F3_START_S, F3_STOP_S = 1805.0, 3605.0

F1_PATH = list(range(0, 10))        # N0..N9
F2_PATH = list(range(10, 19))       # N10..N18
F3_PATH = list(range(19, 28))       # N19..N27

#: The paper's schedule as (flow, path, start, stop) rows, in seconds.
FLOWS = (
    ("F1", F1_PATH, F1_START_S, F1_STOP_S),
    ("F2", F2_PATH, F2_START_S, F2_STOP_S),
    ("F3", F3_PATH, F3_START_S, F3_STOP_S),
)


def scenario2_positions() -> Dict[int, Tuple[float, float]]:
    """Coordinates for the three-chain reconstruction.

    Hops advance 200 m. The slant (75 m of descent per 200 m of advance,
    213.6 m hop length) keeps each chain in the canonical regime —
    adjacent hops decode, 2-hop neighbours carrier-sense, 3-hop
    neighbours are hidden — while bringing each tail within sensing
    range (300-525 m) of a segment of F1 without creating any
    cross-chain reception edge.
    """
    positions: Dict[int, Tuple[float, float]] = {}
    for i in F1_PATH:  # horizontal chain at y = 0
        positions[i] = (i * 200.0, 0.0)
    for rank, node in enumerate(F2_PATH):  # tail descends toward N0
        positions[node] = (1600.0 - rank * 200.0, 900.0 - rank * 75.0)
    for rank, node in enumerate(F3_PATH):  # mirrored, tail toward N9
        positions[node] = (200.0 + rank * 200.0, -900.0 + rank * 75.0)
    return positions


def scenario2_network(seed: int = 0, time_scale: float = 1.0) -> Network:
    """Build scenario 2 with the paper's three-period flow schedule."""
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    network = build_network(
        GeometricConnectivity(scenario2_positions(), RangeModel()), seed=seed
    )
    for flow_id, path, start_s, stop_s in FLOWS:
        network.add_flow(
            flow_id, path, start_s=start_s * time_scale, stop_s=stop_s * time_scale
        )
    return network

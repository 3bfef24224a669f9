"""Simulation scenario 1: two 8-hop flows merging at a gateway (Figure 5).

Two parallel branches join at N4 and share the final four hops to the
gateway N0 — the canonical uplink pattern of a mesh backhaul:

* ``F1``: N12 -> N10 -> N8 -> N6 -> N4 -> N3 -> N2 -> N1 -> N0
* ``F2``: N11 -> N9  -> N7 -> N5 -> N4 -> N3 -> N2 -> N1 -> N0

Geometry: the shared trunk runs along the x-axis with 200 m spacing; the
branches fan out from N4 at +/-45 degrees, also with 200 m spacing.
Opposite branch nodes closest to the junction (N5, N6) are 283 m apart —
inside sensing range but outside reception range — and branch pairs
further out are mutually hidden, which is what makes the junction
contention interesting.

Paper timing: F1 active 5 s -> 2504 s, F2 active 605 s -> 1804 s.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.topology.builders import Network, build_network

#: Paper activity windows (seconds).
F1_START_S, F1_STOP_S = 5.0, 2504.0
F2_START_S, F2_STOP_S = 605.0, 1804.0

F1_PATH = [12, 10, 8, 6, 4, 3, 2, 1, 0]
F2_PATH = [11, 9, 7, 5, 4, 3, 2, 1, 0]

#: The paper's schedule as (flow, path, start, stop) rows, in seconds.
FLOWS = (
    ("F1", F1_PATH, F1_START_S, F1_STOP_S),
    ("F2", F2_PATH, F2_START_S, F2_STOP_S),
)


def scenario1_positions() -> Dict[int, Tuple[float, float]]:
    """Node coordinates for the merge topology."""
    positions: Dict[int, Tuple[float, float]] = {
        i: (i * 200.0, 0.0) for i in range(5)  # trunk N0..N4
    }
    step = 200.0 / math.sqrt(2.0)
    for rank, node in enumerate([6, 8, 10, 12], start=1):  # F1 branch, +45 deg
        positions[node] = (800.0 + rank * step, rank * step)
    for rank, node in enumerate([5, 7, 9, 11], start=1):  # F2 branch, -45 deg
        positions[node] = (800.0 + rank * step, -rank * step)
    return positions


def scenario1_network(seed: int = 0, time_scale: float = 1.0) -> Network:
    """Build scenario 1 with the paper's flow schedule.

    ``time_scale`` compresses the schedule (0.1 turns the 2504 s run
    into 250.4 s) so the full three-period structure — F1 alone, both
    flows, F1 alone again — survives in shorter reproductions.
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    network = build_network(
        GeometricConnectivity(scenario1_positions(), RangeModel()), seed=seed
    )
    for flow_id, path, start_s, stop_s in FLOWS:
        network.add_flow(
            flow_id, path, start_s=start_s * time_scale, stop_s=stop_s * time_scale
        )
    return network

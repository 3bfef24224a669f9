"""Topology builders for every network the paper evaluates.

* ``linear`` — K-hop chains (Figure 1, Section 6 analysis);
* ``testbed`` — the 9-node, 4-building deployment of Figure 3 with its
  two flows and calibrated lossy links (Table 1);
* ``scenario1`` — two 8-hop flows merging toward a gateway (Figure 5);
* ``scenario2`` — three flows with a hidden-terminal source (Figure 9);
* ``meshgen`` — seeded generators for random meshes, grids and
  multi-gateway trees (validated connected, shortest-path routed);
* ``trees`` — gateway-rooted downlink trees (Section 7);
* ``builders`` — the shared ``Network`` container, whose ``add_flow``
  wires every flow of the paper layouts (route, sink, source).
"""

from repro.topology.builders import Network, build_chain_positions
from repro.topology.linear import linear_chain
from repro.topology.meshgen import (
    MESH_KINDS,
    MeshGenError,
    MeshSpec,
    MeshTopology,
    build_mesh_network,
    generate_topology,
    is_connected,
)
from repro.topology.testbed import testbed_network, TESTBED_LINK_RATES_KBPS
from repro.topology.scenario1 import scenario1_network
from repro.topology.scenario2 import scenario2_network
from repro.topology.trees import tree_backhaul, tree_positions

__all__ = [
    "Network",
    "build_chain_positions",
    "linear_chain",
    "testbed_network",
    "TESTBED_LINK_RATES_KBPS",
    "scenario1_network",
    "scenario2_network",
    "tree_backhaul",
    "tree_positions",
    "MESH_KINDS",
    "MeshGenError",
    "MeshSpec",
    "MeshTopology",
    "build_mesh_network",
    "generate_topology",
    "is_connected",
]

"""Generated topologies: random meshes, grids, multi-gateway trees.

The paper evaluates EZ-flow on a handful of hand-built layouts; this
module manufactures arbitrarily many. Three seeded generator kinds:

* ``mesh`` — uniform random node placement in a square whose side is
  derived from a *density* knob (expected neighbours per node grows
  with density). Placement is rejection-resampled until the reception
  graph under the 250 m / 550 m radii is connected.
* ``grid`` — a rectangular lattice at chain spacing (200 m), connected
  by construction: horizontal/vertical neighbours decode each other,
  diagonals only carrier-sense.
* ``tree`` — a multi-gateway backhaul forest. Gateways sit on a
  baseline one spacing apart (so the gateway chain itself is a
  reception path and the whole graph stays connected); each gateway
  fans its share of the remaining nodes downward in its own angular
  sector, with seeded angular jitter.

Every generated layout is validated connected before use (the mesh
kind resamples, the deterministic kinds assert). :func:`generate_topology`
holds the layout it built last and hands every caller an independent
copy, so runs of one layout under several algorithms build it once.
``build_mesh_network``
wires a full :class:`~repro.topology.builders.Network` with
shortest-path (BFS) routes installed from every node toward every
gateway, so any sampled source→gateway flow is routable immediately.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.phy.connectivity import (
    ConnectivityMap,
    GeometricConnectivity,
    neighbour_candidates,
)
from repro.phy.propagation import Position, RangeModel, distance
from repro.sim.rng import RngRegistry
from repro.topology.builders import Network, build_network

MESH_KINDS = ("mesh", "grid", "tree")

#: Chain spacing giving the paper's canonical 2-hop sensing regime.
DEFAULT_SPACING_M = 200.0


class MeshGenError(ValueError):
    """A generator parameter is invalid or generation failed."""


@dataclass(frozen=True)
class MeshSpec:
    """Parameters of one generated topology."""

    kind: str = "mesh"
    nodes: int = 16
    density: float = 1.5  # mesh only: ~pi*density expected neighbours
    gateways: int = 2
    seed: int = 0
    spacing_m: float = DEFAULT_SPACING_M
    tx_range_m: float = 250.0
    sense_range_m: float = 550.0
    fanout: int = 2  # tree only: children per attach point
    max_attempts: int = 200  # mesh only: rejection-resampling budget

    def __post_init__(self):
        if self.kind not in MESH_KINDS:
            raise MeshGenError(f"unknown topology kind {self.kind!r}; known: {', '.join(MESH_KINDS)}")
        if self.nodes < 2:
            raise MeshGenError("a topology needs at least two nodes")
        if not 1 <= self.gateways < self.nodes:
            raise MeshGenError("gateways must be in [1, nodes)")
        if self.density <= 0:
            raise MeshGenError("density must be positive")
        if self.fanout < 1:
            raise MeshGenError("fanout must be >= 1")
        if self.max_attempts < 1:
            raise MeshGenError("max_attempts must be >= 1")


@dataclass
class MeshTopology:
    """A generated, validated layout plus its routing structure.

    ``depths[gw][node]`` is the BFS hop count from ``node`` to gateway
    ``gw``; ``parents[gw][node]`` the next hop toward it. ``nearest``
    maps every non-gateway node to its closest gateway (hop count, ties
    to the lower gateway id).
    """

    spec: MeshSpec
    positions: Dict[int, Position]
    gateways: List[int]
    attempts: int
    connectivity: Optional[GeometricConnectivity] = None
    depths: Dict[int, Dict[int, int]] = field(default_factory=dict)
    parents: Dict[int, Dict[int, int]] = field(default_factory=dict)
    nearest: Dict[int, int] = field(default_factory=dict)

    def copy(self) -> "MeshTopology":
        """An independent copy: every dict copied, the map via its own
        :meth:`~repro.phy.connectivity.GeometricConnectivity.copy`."""
        return MeshTopology(
            spec=self.spec,
            positions=dict(self.positions),
            gateways=list(self.gateways),
            attempts=self.attempts,
            connectivity=None if self.connectivity is None else self.connectivity.copy(),
            depths={gw: dict(depths) for gw, depths in self.depths.items()},
            parents={gw: dict(parents) for gw, parents in self.parents.items()},
            nearest=dict(self.nearest),
        )

    def route_to_gateway(self, node: int, gateway: Optional[int] = None) -> List[int]:
        """The BFS shortest path ``node -> ... -> gateway``."""
        gateway = self.nearest[node] if gateway is None else gateway
        parents = self.parents[gateway]
        path = [node]
        while path[-1] != gateway:
            path.append(parents[path[-1]])
        return path


def is_connected(connectivity: ConnectivityMap) -> bool:
    """True when the reception graph spans every node."""
    nodes = sorted(connectivity.nodes())
    if not nodes:
        return False
    seen = {nodes[0]}
    frontier = deque(seen)
    while frontier:
        node = frontier.popleft()
        for neighbour in connectivity.receivers_of(node):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return len(seen) == len(nodes)


def bfs_tree(connectivity: ConnectivityMap, root: int) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Hop counts and next-hop-toward-root pointers from every node.

    Neighbours are visited in sorted order so the tree — and therefore
    every installed route — is a pure function of the layout. Nodes the
    reception graph cannot reach from ``root`` (possible after churn)
    simply do not appear in either mapping. Churn re-routing
    (:mod:`repro.topology.churn`) calls this against the mutated map.
    """
    depths = {root: 0}
    parents: Dict[int, int] = {}
    frontier = deque([root])
    while frontier:
        node = frontier.popleft()
        for neighbour in sorted(connectivity.receivers_of(node)):
            if neighbour not in depths:
                depths[neighbour] = depths[node] + 1
                parents[neighbour] = node
                frontier.append(neighbour)
    return depths, parents


def _mesh_positions(
    spec: MeshSpec, rng: RngRegistry
) -> Tuple[Dict[int, Position], int, GeometricConnectivity]:
    """Uniform placement, rejection-resampled until connected.

    The square's side is ``tx_range * sqrt(nodes / density)``: each node
    then expects ~``pi * density`` reception neighbours. Near the
    connectivity threshold (~``ln n`` expected neighbours) placements
    are often rejected: at the default density 1.5, ``nodes=49`` needs
    a median of 47 attempts over seeds 0-39 (seed 26 exhausts the
    200-attempt budget) and ``nodes=100`` fails for 29 of those 40
    seeds, so larger meshes need a higher density.

    Each attempt is probed on its reception graph alone, built by the
    cell-grid search of :func:`neighbour_candidates` at the transmit
    radius (O(n * neighbours), not O(n^2)); only the accepted placement
    pays for the full map (sensing sets, frozensets), which is
    returned alongside so callers don't rebuild it.
    """
    stream = rng.stream(f"topology.meshgen.{spec.seed}")
    side = spec.tx_range_m * math.sqrt(spec.nodes / spec.density)
    ranges = RangeModel(spec.tx_range_m, spec.sense_range_m)
    tx_range = ranges.tx_range_m
    count = spec.nodes
    for attempt in range(1, spec.max_attempts + 1):
        points = [
            (stream.uniform(0.0, side), stream.uniform(0.0, side))
            for _ in range(count)
        ]
        # The same exact distance and inclusive transmit-radius test
        # decide every edge as in the full map, so acceptance decisions
        # (and with them the RNG stream) are bit-identical to validating
        # via the full map.
        adjacency: List[List[int]] = [[] for _ in range(count)]
        for a, b, d in neighbour_candidates(points, tx_range):
            if d <= tx_range:
                adjacency[a].append(b)
                adjacency[b].append(a)
        seen = [False] * count
        seen[0] = True
        frontier = deque((0,))
        reached = 1
        while frontier:
            for neighbour in adjacency[frontier.popleft()]:
                if not seen[neighbour]:
                    seen[neighbour] = True
                    reached += 1
                    frontier.append(neighbour)
        if reached == count:
            positions = dict(enumerate(points))
            return positions, attempt, GeometricConnectivity(positions, ranges)
    raise MeshGenError(
        f"no connected placement of {spec.nodes} nodes at density "
        f"{spec.density} in {spec.max_attempts} attempts (seed {spec.seed})"
    )


def _grid_positions(spec: MeshSpec) -> Dict[int, Position]:
    """Row-major rectangular lattice, as square as the count allows."""
    cols = max(1, math.ceil(math.sqrt(spec.nodes)))
    return {
        i: ((i % cols) * spec.spacing_m, (i // cols) * spec.spacing_m)
        for i in range(spec.nodes)
    }


def _tree_positions(spec: MeshSpec, rng: RngRegistry) -> Dict[int, Position]:
    """Multi-gateway forest: gateway baseline + fanned subtrees.

    Gateways 0..g-1 sit one spacing apart on the x axis (a reception
    chain). The remaining nodes are attached breadth-first, round-robin
    across gateways, each subtree fanning downward inside its own
    angular sector. Jitter rotates a child around its parent, so the
    parent-child distance stays exactly one spacing — links never break.
    """
    stream = rng.stream(f"topology.meshgen.tree.{spec.seed}")
    positions: Dict[int, Position] = {
        g: (g * spec.spacing_m, 0.0) for g in range(spec.gateways)
    }
    # Per-gateway FIFO of (node, level, sector_lo, sector_hi) attach points.
    attach: List[deque] = []
    sector = math.pi / 3.0
    for g in range(spec.gateways):
        attach.append(deque([(g, 0, -math.pi / 2 - sector / 2, -math.pi / 2 + sector / 2)]))
    slots: Dict[int, int] = {g: spec.fanout for g in range(spec.gateways)}
    next_id = spec.gateways
    g = 0
    while next_id < spec.nodes:
        queue = attach[g % spec.gateways]
        g += 1
        parent, level, lo, hi = queue[0]
        taken = spec.fanout - slots[parent]
        width = (hi - lo) / spec.fanout
        angle = lo + (taken + 0.5) * width + stream.uniform(-0.05, 0.05)
        px, py = positions[parent]
        child = next_id
        next_id += 1
        radius = spec.spacing_m
        positions[child] = (px + radius * math.cos(angle), py + radius * math.sin(angle))
        slots[parent] -= 1
        slots[child] = spec.fanout
        queue.append((child, level + 1, lo + taken * width, lo + (taken + 1) * width))
        if slots[parent] == 0:
            queue.popleft()
    return positions


def _select_gateways(spec: MeshSpec, positions: Dict[int, Position]) -> List[int]:
    """Gateway node ids, spread across the layout's bounding box.

    The tree kind builds its gateways explicitly (ids 0..g-1); mesh and
    grid pick the node nearest each of a fixed anchor sequence (corners
    first, then centre), deduplicated in id order.
    """
    if spec.kind == "tree":
        return list(range(spec.gateways))
    xs = [p[0] for p in positions.values()]
    ys = [p[1] for p in positions.values()]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    anchors = [
        (lo_x, lo_y),
        (hi_x, hi_y),
        (lo_x, hi_y),
        (hi_x, lo_y),
        ((lo_x + hi_x) / 2, (lo_y + hi_y) / 2),
    ]
    if spec.gateways > len(anchors):
        raise MeshGenError(f"at most {len(anchors)} gateways supported, got {spec.gateways}")
    chosen: List[int] = []
    for anchor in anchors[: spec.gateways]:
        best = min(
            (node for node in sorted(positions) if node not in chosen),
            key=lambda node: (distance(positions[node], anchor), node),
        )
        chosen.append(best)
    return chosen


#: The last layout :func:`generate_topology` built, as ``(key, layout)``.
_held: Optional[Tuple[str, MeshTopology]] = None


def clear_cache() -> None:
    """Drop the held layout (tests; benchmarks that time generation)."""
    global _held
    _held = None


def generate_topology(spec: MeshSpec) -> MeshTopology:
    """Generate, validate and annotate one layout (no simulation yet).

    Every call returns an independent copy (:meth:`MeshTopology.copy`):
    its dicts and its connectivity map are the caller's own, so churn
    or mobility on one run's map never reaches another run.

    The module holds the one layout it built last. Consecutive calls
    for one spec (a sweep running one layout under several algorithms)
    build it once; a call for another spec drops the held layout
    *before* building the next, so a process never holds two. The key
    is the spec's ``repr``, not ``==``: ``MeshSpec(seed=1)`` equals
    ``MeshSpec(seed=1.0)``, but the seed names the placement stream,
    so the two are different layouts. The slot is read once into a
    local, so two threads can at worst both build, never share a map.
    :func:`clear_cache` drops the held layout.
    """
    global _held
    key = repr(spec)
    held = _held
    if held is None or held[0] != key:
        # Unbind both references first: the local would otherwise keep
        # the old layout alive while the new one is built.
        held = _held = None
        held = _held = (key, _generate(spec))
    return held[1].copy()


def _generate(spec: MeshSpec) -> MeshTopology:
    """Place, validate and annotate one layout: the memo's body."""
    rng = RngRegistry(spec.seed)
    attempts = 1
    if spec.kind == "mesh":
        # The mesh sampler already validated the accepted placement.
        positions, attempts, connectivity = _mesh_positions(spec, rng)
    else:
        if spec.kind == "grid":
            positions = _grid_positions(spec)
        else:
            positions = _tree_positions(spec, rng)
        ranges = RangeModel(spec.tx_range_m, spec.sense_range_m)
        connectivity = GeometricConnectivity(positions, ranges)
        if not is_connected(connectivity):
            raise MeshGenError(f"generated {spec.kind} topology is not connected")
    topology = MeshTopology(
        spec=spec,
        positions=positions,
        gateways=_select_gateways(spec, positions),
        attempts=attempts,
        connectivity=connectivity,
    )
    for gateway in topology.gateways:
        depths, parents = bfs_tree(connectivity, gateway)
        topology.depths[gateway] = depths
        topology.parents[gateway] = parents
    for node in sorted(positions):
        if node in topology.gateways:
            continue
        topology.nearest[node] = min(
            topology.gateways, key=lambda gw: (topology.depths[gw][node], gw)
        )
    return topology


def build_mesh_network(spec: MeshSpec) -> Tuple[Network, MeshTopology]:
    """Instantiate a fully wired :class:`Network` for a generated layout.

    Shortest-path next hops toward every gateway are installed for every
    node, straight from the per-gateway BFS trees (all entries of one
    destination come from one tree, so tables are loop-free by
    construction). Traffic attachment is the workload layer's job —
    see :mod:`repro.traffic.workloads`.
    """
    topology = generate_topology(spec)
    network = build_network(topology.connectivity, seed=spec.seed)
    for gateway in topology.gateways:
        parents = topology.parents[gateway]
        for node in sorted(parents):
            network.routing.set_next_hop(node, gateway, parents[node])
    return network, topology


def mean_degree(connectivity: ConnectivityMap) -> float:
    """Average reception-neighbour count over all nodes."""
    nodes = connectivity.nodes()
    if not nodes:
        return 0.0
    return sum(len(connectivity.receivers_of(n)) for n in nodes) / len(nodes)

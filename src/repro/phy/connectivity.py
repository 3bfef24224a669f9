"""Connectivity maps: who can decode whom, who senses whom.

Two implementations are provided. ``GeometricConnectivity`` derives both
relations from node positions and a :class:`~repro.phy.propagation.RangeModel`
(the ns-2 style configuration). ``ExplicitConnectivity`` takes the two
directed edge sets verbatim, which is how the 9-node testbed map (Figure 3)
is encoded, including its asymmetric sensing relations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.phy.propagation import Position, RangeModel, distance

NodeId = Hashable


#: Relative power assigned to sense-only edges by ExplicitConnectivity:
#: strong enough to be carrier-sensed, ~13 dB below a reception-grade
#: signal, hence captured through by any decodable frame.
SENSE_ONLY_POWER = 0.05


def neighbour_candidates(
    points: Sequence[Position], radius: float
) -> Iterator[Tuple[int, int, float]]:
    """Yield ``(i, j, distance(points[i], points[j]))`` for nearby pairs.

    Every index pair ``i < j`` whose exact :func:`distance` is at most
    ``radius`` is yielded — plus, rarely, a pair a rounding error
    beyond it — in the ``(i, j)`` lexicographic order of an all-pairs
    scan, so callers that decide edges with their own predicate on the
    yielded distance add them to their sets in exactly the order that
    scan would. Cost is O(n * neighbours), not O(n^2): points are
    bucketed into square cells no narrower than ``radius``, so a
    partner within ``radius`` lies in the 3x3 block of cells around a
    point, and block members are screened by squared distance before
    the exact distance is paid for. Coordinates must be finite.
    """
    if len(points) < 2:
        return
    xs = [point[0] for point in points]
    ys = [point[1] for point in points]
    # The margin (far above the rounding error of the quotients below,
    # relative to the largest coordinate) keeps a pair within `radius`
    # from ever landing two cell indices apart.
    extent = max(max(map(abs, xs)), max(map(abs, ys)))
    width = radius + (radius + extent) * 2.0**-40
    cells: Dict[Tuple[int, int], List[int]] = {}
    keys = [(math.floor(x / width), math.floor(y / width)) for x, y in zip(xs, ys)]
    for index, key in enumerate(keys):
        cells.setdefault(key, []).append(index)
    # Each occupied cell's 3x3 block, as one ascending index list.
    blocks: Dict[Tuple[int, int], List[int]] = {}
    for cx, cy in cells:
        blocks[cx, cy] = sorted(
            index
            for gx in (cx - 1, cx, cx + 1)
            for gy in (cy - 1, cy, cy + 1)
            for index in cells.get((gx, gy), ())
        )
    # Conservative screen: the relative slack dwarfs the few ulps by
    # which the squared sum and math.hypot can disagree.
    bound = radius * radius * (1.0 + 2.0**-40)
    for i, key in enumerate(keys):
        x, y = xs[i], ys[i]
        block = blocks[key]
        point = points[i]
        for j in [
            j
            for j in block[bisect_right(block, i) :]
            if (x - xs[j]) * (x - xs[j]) + (y - ys[j]) * (y - ys[j]) <= bound
        ]:
            yield i, j, distance(point, points[j])


class ConnectivityMap:
    """Interface: reception and carrier-sense relations between nodes.

    Maps may be *dynamic*: :attr:`epoch` counts mutations (node churn,
    mobility steps). Consumers that cache derived structures — the
    channel's per-sender delivery plans above all — tag their caches
    with the epoch they were built under and rebuild lazily when the
    map's epoch has moved on. Static maps simply never bump it.
    """

    #: Mutation counter. 0 forever for immutable maps; implementations
    #: with a mutation API (see :class:`GeometricConnectivity`) bump it
    #: on every topology change.
    epoch: int = 0

    def nodes(self) -> FrozenSet[NodeId]:
        """All node ids this map covers."""
        raise NotImplementedError

    def rx_power(self, receiver: NodeId, sender: NodeId) -> float:
        """Relative received signal power (linear scale, 0.0 = inaudible).

        Only ratios matter: the channel compares the wanted signal
        against concurrent interferers to decide physical capture.
        """
        raise NotImplementedError

    def can_receive(self, receiver: NodeId, sender: NodeId) -> bool:
        """True when ``receiver`` decodes ``sender``'s frames (no collision)."""
        raise NotImplementedError

    def can_sense(self, node: NodeId, sender: NodeId) -> bool:
        """True when ``sender`` transmitting makes the medium busy at ``node``."""
        raise NotImplementedError

    def receivers_of(self, sender: NodeId) -> FrozenSet[NodeId]:
        """Nodes that decode ``sender``'s frames (collision-free case)."""
        raise NotImplementedError

    def sensors_of(self, sender: NodeId) -> FrozenSet[NodeId]:
        """Nodes whose medium goes busy when ``sender`` transmits."""
        raise NotImplementedError

    # -- inverse relations ------------------------------------------------
    #
    # The channel's per-sender delivery-plan build needs "which senders
    # does this node hear?" — the inverse of sensors_of/receivers_of.
    # The generic implementations scan all nodes (exactly the relation's
    # definition); concrete maps override them with indexed lookups so a
    # plan build is O(degree^2) instead of O(degree * N).

    def senders_sensed_at(self, node: NodeId) -> FrozenSet[NodeId]:
        """Senders whose transmissions make the medium busy at ``node``."""
        return frozenset(
            s for s in self.nodes() if s != node and self.can_sense(node, s)
        )

    def senders_received_at(self, node: NodeId) -> FrozenSet[NodeId]:
        """Senders whose frames ``node`` decodes (collision-free case)."""
        return frozenset(
            s for s in self.nodes() if s != node and self.can_receive(node, s)
        )


class GeometricConnectivity(ConnectivityMap):
    """Connectivity from positions and deterministic radii.

    This is the *mutable* map: :meth:`move_node` (waypoint mobility
    steps) and :meth:`set_node_active` (churn: radio off/on) update the
    edge sets incrementally and bump :attr:`epoch`, so channel delivery
    plans built under the previous topology invalidate lazily. A down
    node keeps its id and position but has no edges in either direction
    and zero received power — frames it sends reach nobody, frames sent
    to it die, and it occupies no one's medium.
    """

    def __init__(self, positions: Mapping[NodeId, Position], ranges: RangeModel):
        self.positions: Dict[NodeId, Position] = dict(positions)
        # The id set is fixed: mobility moves a node, churn silences it.
        self._nodes = frozenset(self.positions)
        self.ranges = ranges
        self.epoch = 0
        self._down: Set[NodeId] = set()
        self._rx: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._sense: Dict[NodeId, FrozenSet[NodeId]] = {}
        self._build()

    def _build(self) -> None:
        """Both edge tables from a cell-grid search at the sense radius.

        :func:`neighbour_candidates` yields each unordered pair that may
        lie within sensing range once (distance is symmetric: identical
        IEEE arithmetic both ways), and :attr:`ranges` decides both
        relations on the exact distance, recording each in both
        directions. Pairs arrive in the all-pairs scan's (i, j) order,
        so every set receives its members in the same order and every
        frozenset iterates as a full N^2 scan would build it — channel
        plans, BFS and slotted contention all iterate these sets.
        """
        ids = list(self.positions)
        can_receive = self.ranges.can_receive
        can_sense = self.ranges.can_sense
        rx: Dict[NodeId, Set[NodeId]] = {a: set() for a in ids}
        sense: Dict[NodeId, Set[NodeId]] = {a: set() for a in ids}
        points = list(self.positions.values())
        for i, j, d in neighbour_candidates(points, self.ranges.sense_range_m):
            if can_sense(d):
                a, b = ids[i], ids[j]
                sense[a].add(b)
                sense[b].add(a)
                if can_receive(d):
                    rx[a].add(b)
                    rx[b].add(a)
        for a in ids:
            self._rx[a] = frozenset(rx[a])
            self._sense[a] = frozenset(sense[a])

    # -- mutation API (churn / mobility) --------------------------------

    def is_active(self, node: NodeId) -> bool:
        """False while ``node`` is churned down (radio off)."""
        return node not in self._down

    def _detach_edges(self, node: NodeId) -> None:
        """Remove ``node`` from every edge set (both directions)."""
        for other in self._sense.get(node, ()):
            self._sense[other] = self._sense[other] - {node}
        for other in self._rx.get(node, ()):
            self._rx[other] = self._rx[other] - {node}
        self._rx[node] = frozenset()
        self._sense[node] = frozenset()

    def _attach_edges(self, node: NodeId) -> None:
        """Recompute ``node``'s edges against every active other node."""
        position = self.positions[node]
        can_sense = self.ranges.can_sense
        can_receive = self.ranges.can_receive
        down = self._down
        rx_n: Set[NodeId] = set()
        sense_n: Set[NodeId] = set()
        for other, other_position in self.positions.items():
            if other == node or other in down:
                continue
            d = distance(position, other_position)
            if can_sense(d):
                sense_n.add(other)
                self._sense[other] = self._sense[other] | {node}
                if can_receive(d):
                    rx_n.add(other)
                    self._rx[other] = self._rx[other] | {node}
        self._rx[node] = frozenset(rx_n)
        self._sense[node] = frozenset(sense_n)

    def move_node(self, node: NodeId, position: Position) -> None:
        """Waypoint mobility step: teleport ``node`` to ``position``.

        Edges of ``node`` are recomputed against every active node
        (O(N)); everyone else's pairwise relations are untouched. Bumps
        :attr:`epoch` even while the node is down — its position matters
        again the moment it comes back up.
        """
        if node not in self.positions:
            raise ValueError(f"node {node!r} not in connectivity map")
        self.positions[node] = (float(position[0]), float(position[1]))
        if node not in self._down:
            self._detach_edges(node)
            self._attach_edges(node)
        self.epoch += 1

    def set_node_active(self, node: NodeId, active: bool) -> None:
        """Churn: take ``node`` down (radio off) or bring it back up.

        Idempotent — repeating the current state does not bump the
        epoch. A node coming back up recomputes its edges at its
        current (possibly moved-while-down) position.
        """
        if node not in self.positions:
            raise ValueError(f"node {node!r} not in connectivity map")
        if active and node in self._down:
            self._down.discard(node)
            self._attach_edges(node)
            self.epoch += 1
        elif not active and node not in self._down:
            self._down.add(node)
            self._detach_edges(node)
            self.epoch += 1

    # -- queries --------------------------------------------------------

    def nodes(self) -> FrozenSet[NodeId]:
        return self._nodes

    def rx_power(self, receiver: NodeId, sender: NodeId) -> float:
        """Two-ray far-field power: d^-4 (relative), 0 beyond sensing."""
        if receiver == sender:
            return 0.0
        if self._down and (receiver in self._down or sender in self._down):
            return 0.0
        d = distance(self.positions[receiver], self.positions[sender])
        if d <= 0 or not self.ranges.can_sense(d):
            return 0.0
        return (1.0 / d) ** 4

    def can_receive(self, receiver: NodeId, sender: NodeId) -> bool:
        return receiver in self._rx.get(sender, frozenset())

    def can_sense(self, node: NodeId, sender: NodeId) -> bool:
        return node in self._sense.get(sender, frozenset())

    def receivers_of(self, sender: NodeId) -> FrozenSet[NodeId]:
        return self._rx.get(sender, frozenset())

    def sensors_of(self, sender: NodeId) -> FrozenSet[NodeId]:
        return self._sense.get(sender, frozenset())

    # Geometric relations are symmetric (one distance, two directions),
    # so the inverse relations are the forward tables themselves.

    def senders_sensed_at(self, node: NodeId) -> FrozenSet[NodeId]:
        return self._sense.get(node, frozenset())

    def senders_received_at(self, node: NodeId) -> FrozenSet[NodeId]:
        return self._rx.get(node, frozenset())


class ExplicitConnectivity(ConnectivityMap):
    """Connectivity from explicit directed edge lists.

    ``rx_edges`` are (sender, receiver) pairs along which frames decode;
    every rx edge is implicitly also a sense edge. ``sense_edges`` add
    carrier-sense/interference-only pairs (sensed but not decodable).
    """

    def __init__(
        self,
        nodes: Iterable[NodeId],
        rx_edges: Iterable[Tuple[NodeId, NodeId]],
        sense_edges: Iterable[Tuple[NodeId, NodeId]] = (),
        symmetric: bool = True,
    ):
        self._nodes = frozenset(nodes)
        rx: Dict[NodeId, Set[NodeId]] = {n: set() for n in self._nodes}
        sense: Dict[NodeId, Set[NodeId]] = {n: set() for n in self._nodes}

        def add(table: Dict[NodeId, Set[NodeId]], a: NodeId, b: NodeId) -> None:
            if a not in self._nodes or b not in self._nodes:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
            if a == b:
                raise ValueError("self-edges are not allowed")
            table[a].add(b)
            if symmetric:
                table[b].add(a)

        for a, b in rx_edges:
            add(rx, a, b)
            add(sense, a, b)
        for a, b in sense_edges:
            add(sense, a, b)
        self._rx = {n: frozenset(v) for n, v in rx.items()}
        self._sense = {n: frozenset(v) for n, v in sense.items()}
        # Inverse indexes (may differ from the forward tables when the
        # map is asymmetric); built lazily on first use.
        self._rx_at: Optional[Dict[NodeId, FrozenSet[NodeId]]] = None
        self._sense_at: Optional[Dict[NodeId, FrozenSet[NodeId]]] = None

    @staticmethod
    def _invert(
        table: Mapping[NodeId, FrozenSet[NodeId]]
    ) -> Dict[NodeId, FrozenSet[NodeId]]:
        inverse: Dict[NodeId, Set[NodeId]] = {n: set() for n in table}
        for sender, targets in table.items():
            for target in targets:
                inverse[target].add(sender)
        return {n: frozenset(v) for n, v in inverse.items()}

    def nodes(self) -> FrozenSet[NodeId]:
        return self._nodes

    def rx_power(self, receiver: NodeId, sender: NodeId) -> float:
        """Reception-grade edges at 0 dB, sense-only edges ~13 dB down."""
        if receiver in self._rx[sender]:
            return 1.0
        if receiver in self._sense[sender]:
            return SENSE_ONLY_POWER
        return 0.0

    def can_receive(self, receiver: NodeId, sender: NodeId) -> bool:
        return receiver in self._rx[sender]

    def can_sense(self, node: NodeId, sender: NodeId) -> bool:
        return node in self._sense[sender]

    def receivers_of(self, sender: NodeId) -> FrozenSet[NodeId]:
        return self._rx[sender]

    def sensors_of(self, sender: NodeId) -> FrozenSet[NodeId]:
        return self._sense[sender]

    def senders_sensed_at(self, node: NodeId) -> FrozenSet[NodeId]:
        if self._sense_at is None:
            self._sense_at = self._invert(self._sense)
        return self._sense_at[node]

    def senders_received_at(self, node: NodeId) -> FrozenSet[NodeId]:
        if self._rx_at is None:
            self._rx_at = self._invert(self._rx)
        return self._rx_at[node]

"""Static routing (the NOAH agent of the ns-2 experiments).

Routes only change when topology does: the paper's scenarios pin routes
for a whole run to isolate MAC-layer effects from route flaps, while
churn/mobility schedules (:mod:`repro.topology.churn`) re-run BFS after
each topology mutation and overwrite the affected next hops in place.
Node stacks cache their per-destination queue resolution, so a re-route
must also call ``NodeStack.invalidate_route_caches`` on every node.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

NodeId = Hashable


class RoutingError(Exception):
    """No route, or an inconsistent route definition."""


class StaticRouting:
    """Per-node next-hop tables, with helpers to install whole paths."""

    def __init__(self):
        self._next_hop: Dict[Tuple[NodeId, NodeId], NodeId] = {}

    def set_next_hop(self, node: NodeId, destination: NodeId, next_hop: NodeId) -> None:
        """Install one routing entry: at ``node``, toward ``destination``."""
        if node == destination:
            raise RoutingError("a node needs no route to itself")
        if next_hop == node:
            raise RoutingError("next hop cannot be the node itself")
        self._next_hop[(node, destination)] = next_hop

    def install_path(self, path: List[NodeId]) -> None:
        """Install next hops along ``path`` toward its final element.

        ``path = [a, b, c, d]`` installs a->b, b->c, c->d for destination
        ``d``.
        """
        if len(path) < 2:
            raise RoutingError("a path needs at least two nodes")
        if len(set(path)) != len(path):
            raise RoutingError("path must not repeat nodes")
        destination = path[-1]
        for here, nxt in zip(path, path[1:]):
            self.set_next_hop(here, destination, nxt)

    def next_hop(self, node: NodeId, destination: NodeId) -> NodeId:
        """The configured next hop (raises RoutingError when unrouted)."""
        try:
            return self._next_hop[(node, destination)]
        except KeyError:
            raise RoutingError(f"no route from {node!r} to {destination!r}") from None

    def has_route(self, node: NodeId, destination: NodeId) -> bool:
        """True when a next hop is installed for (node, destination)."""
        return (node, destination) in self._next_hop

    def destinations(self) -> List[NodeId]:
        """Distinct destinations with at least one installed route.

        Deterministically ordered (repr-sorted). This is what a churn
        re-route recomputes: one fresh BFS tree per destination already
        present in the tables (gateways, and the reverse routes of
        windowed transports), so every live traffic direction follows
        the mutated topology.
        """
        seen = {dst for (_node, dst) in self._next_hop}
        return sorted(seen, key=repr)

    def successors_of(self, node: NodeId) -> List[NodeId]:
        """Distinct next hops this node forwards to (queue-per-successor)."""
        seen: List[NodeId] = []
        for (here, _dst), nxt in self._next_hop.items():
            if here == node and nxt not in seen:
                seen.append(nxt)
        return seen

    def path(self, source: NodeId, destination: NodeId, max_hops: int = 64) -> List[NodeId]:
        """Materialise the full path by following next hops."""
        path = [source]
        node = source
        for _ in range(max_hops):
            node = self.next_hop(node, destination)
            path.append(node)
            if node == destination:
                return path
        raise RoutingError(f"route {source!r}->{destination!r} exceeds {max_hops} hops (loop?)")

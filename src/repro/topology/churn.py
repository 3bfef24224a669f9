"""Declarative churn and mobility schedules for dynamic topologies.

A :class:`ChurnSchedule` is a list of timed topology mutations — node
down/up churn and waypoint mobility steps — applied to a running
network's :class:`~repro.phy.connectivity.GeometricConnectivity` through
its mutation API. Each applied event:

1. mutates the connectivity map (which bumps its epoch, lazily
   invalidating every cached channel delivery plan — frames already on
   the air keep the plan snapshotted at transmit time),
2. re-runs BFS from every destination present in the routing tables
   (gateways, and the reverse routes of windowed transports) against
   the mutated map and overwrites the affected next hops, and
3. drops every node stack's per-destination queue cache, so the next
   packet per destination follows the new route.

Nodes the mutated reception graph cannot reach keep their stale routes:
their packets chase a path that no longer exists and die in MAC retries
— the behaviour a real static-routing mesh exhibits until the node
re-associates.

CLI specs (the meshgen ``churn`` axis) join events with ``+`` and avoid
commas so they survive the sweep CLI's splitting of grid values::

    down:3@8                     node 3 radio off at t=8 s
    up:3@16                      ... and back on at t=16 s
    move:5@10:150:300            node 5 teleports to (150 m, 300 m) at t=10 s
    down:3@8+move:5@10:150:300+up:3@16      one schedule, three events

Times are sim seconds (floats allowed); coordinates are metres. All
mutations are scheduled at network-build time, so the event order at
equal timestamps — and with it the whole run — is deterministic
whatever the sweep worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.phy.connectivity import GeometricConnectivity
from repro.phy.linkstate import apply_loss_models
from repro.sim.units import seconds
from repro.topology.meshgen import bfs_tree

CHURN_KINDS = ("down", "up", "move")


class ChurnSpecError(ValueError):
    """A churn schedule spec string could not be parsed."""


@dataclass(frozen=True)
class ChurnEvent:
    """One timed topology mutation."""

    time_s: float
    kind: str  # "down" | "up" | "move"
    node: int
    x: Optional[float] = None
    y: Optional[float] = None

    def __post_init__(self):
        if self.kind not in CHURN_KINDS:
            raise ChurnSpecError(
                f"unknown churn event kind {self.kind!r}; known: {', '.join(CHURN_KINDS)}"
            )
        if self.time_s < 0:
            raise ChurnSpecError("churn event time must be >= 0")
        if self.kind == "move" and (self.x is None or self.y is None):
            raise ChurnSpecError("move events need target coordinates")

    def apply(self, connectivity: GeometricConnectivity) -> None:
        """Mutate ``connectivity`` by this event (bumping its epoch)."""
        if self.kind == "down":
            connectivity.set_node_active(self.node, False)
        elif self.kind == "up":
            connectivity.set_node_active(self.node, True)
        else:
            connectivity.move_node(self.node, (self.x, self.y))


@dataclass(frozen=True)
class ChurnSchedule:
    """An ordered batch of churn events (stable order at equal times)."""

    events: Tuple[ChurnEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    def ordered(self) -> List[ChurnEvent]:
        """Events by (time, declaration order) — the application order."""
        order = sorted(
            range(len(self.events)), key=lambda i: (self.events[i].time_s, i)
        )
        return [self.events[i] for i in order]

    def check_nodes(self, connectivity) -> None:
        """Reject a schedule naming a node that ``connectivity`` lacks."""
        known = connectivity.nodes()
        for event in self.events:
            if event.node not in known:
                raise ChurnSpecError(
                    f"churn event targets unknown node {event.node!r}"
                )


def _parse_event(token: str) -> ChurnEvent:
    head, _, rest = token.partition(":")
    kind = head.strip()
    if kind not in CHURN_KINDS:
        raise ChurnSpecError(
            f"churn event {token!r}: unknown kind {kind!r}; known: {', '.join(CHURN_KINDS)}"
        )
    fields = rest.split(":") if rest else []
    if kind == "move":
        if len(fields) != 3:
            raise ChurnSpecError(f"churn event {token!r}: move wants NODE@T:X:Y")
    elif len(fields) != 1:
        raise ChurnSpecError(f"churn event {token!r}: {kind} wants NODE@T")
    node_text, at, time_text = fields[0].partition("@")
    if not at:
        raise ChurnSpecError(f"churn event {token!r}: missing @TIME")
    try:
        node = int(node_text)
        time_s = float(time_text)
        x = float(fields[1]) if kind == "move" else None
        y = float(fields[2]) if kind == "move" else None
    except ValueError as error:
        raise ChurnSpecError(f"churn event {token!r}: non-numeric field") from error
    return ChurnEvent(time_s=time_s, kind=kind, node=node, x=x, y=y)


def parse_churn_spec(text: str) -> ChurnSchedule:
    """Parse a CLI churn spec (see the module docstring for the grammar)."""
    tokens = [t.strip() for t in str(text).strip().split("+") if t.strip()]
    if not tokens:
        raise ChurnSpecError("empty churn spec")
    return ChurnSchedule(events=tuple(_parse_event(t) for t in tokens))


class ChurnDriver:
    """Applies a schedule to one network; owns the re-route machinery.

    ``loss_spec`` (a :class:`~repro.phy.linkstate.LossSpec`, optional)
    keeps the per-link loss configuration complete under mobility: after
    every applied event the reception edges are re-enumerated and any
    link that appeared (a move into range, an up event) gets a model on
    its own canonical stream, while existing links keep their model —
    and with it their burst state and stream position.
    """

    def __init__(self, network, schedule: ChurnSchedule, loss_spec=None):
        connectivity = network.connectivity
        if not isinstance(connectivity, GeometricConnectivity):
            raise ChurnSpecError(
                "churn schedules need a mutable GeometricConnectivity map"
            )
        schedule.check_nodes(connectivity)
        self.network = network
        self.schedule = schedule
        self.loss_spec = loss_spec
        self.applied: List[ChurnEvent] = []

    def install(self) -> None:
        """Schedule every event at its absolute sim time.

        Event times are absolute, so installing works mid-run too (e.g.
        after a warmup segment); an event earlier than the engine's
        current time raises rather than silently shifting.
        """
        for event in self.schedule.ordered():
            self.network.engine.schedule_at(seconds(event.time_s), self._apply, event)

    # -- event application ----------------------------------------------

    def _apply(self, event: ChurnEvent) -> None:
        network = self.network
        event.apply(network.connectivity)
        # The epoch bump already invalidates plans lazily; announcing it
        # keeps the channel's caches coherent for direct inspection too.
        network.channel.connectivity_changed()
        if self.loss_spec is not None:
            apply_loss_models(
                network.channel, network.connectivity, self.loss_spec, network.rng
            )
        self._reroute()
        self.applied.append(event)

    def _reroute(self) -> None:
        """Re-run BFS per routed destination and refresh next hops.

        Every destination already present in the routing tables gets a
        fresh shortest-path tree over the mutated reception graph;
        reachable nodes' next hops are overwritten in place (tables stay
        loop-free: all entries of one destination come from one tree).
        Unreachable nodes keep their stale entries. Node-stack queue
        caches are dropped so the new hops take effect from the next
        packet on.
        """
        network = self.network
        routing = network.routing
        connectivity = network.connectivity
        for destination in routing.destinations():
            _depths, parents = bfs_tree(connectivity, destination)
            for node in sorted(parents, key=repr):
                routing.set_next_hop(node, destination, parents[node])
        for stack in network.nodes.values():
            stack.invalidate_route_caches()

"""Per-node stack: queues, forwarding, delivery, sniffer hooks.

Implements the queueing discipline Section 3.1 prescribes: a node that is
both source and relay keeps the two roles in *separate* queues, and a
node with several successors keeps one forwarding queue per successor.
Each queue gets its own MAC transmit entity (its own CWmin).

The stack also exposes the sniffer side-channel: every decoded overheard
DATA frame is passed to registered sniffer callbacks — this is where
EZ-flow's BOE taps in, and where a node's own transmissions are reported
(send events) so the BOE can log sent identifiers.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.mac.dcf import Dcf, DcfConfig, TxEntity
from repro.mac.frames import Frame
from repro.mac.queues import DEFAULT_CAPACITY, FifoQueue
from repro.net.flow import Flow
from repro.net.packet import Packet
from repro.net.routing import StaticRouting
from repro.phy.channel import Channel
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry

NodeId = Hashable

#: queue kinds
OWN = "own"
FWD = "fwd"


class _WiringList(list):
    """A callback list that invokes a hook on first growth.

    The node stack leaves its MAC's overheard-frame upcall unwired until
    somebody actually subscribes a sniffer: overhearing is the single
    most frequent PHY delivery in a dense mesh, and for the common
    no-sniffer configuration (standard 802.11, static baselines) the
    whole per-frame call chain collapses to nothing. Appending the first
    callback — whether via ``append``, ``extend`` or ``insert`` — wires
    the MAC exactly as the eager constructor used to.
    """

    __slots__ = ("_on_first",)

    def __init__(self, on_first):
        super().__init__()
        self._on_first = on_first

    def _wire(self) -> None:
        if not self:
            self._on_first()

    def append(self, item):
        self._wire()
        super().append(item)

    def extend(self, items):
        items = list(items)
        if items:
            self._wire()
        super().extend(items)

    def insert(self, index, item):
        self._wire()
        super().insert(index, item)

    def __iadd__(self, items):
        items = list(items)
        if items:
            self._wire()
        return super().__iadd__(items)

    def __setitem__(self, index, item):
        # Slice assignment can also grow the list (and is how some
        # callers might splice a callback in); wire defensively.
        self._wire()
        super().__setitem__(index, item)


class NodeStack:
    """One mesh node: traffic entry point, relay, and sink."""

    def __init__(
        self,
        engine: Engine,
        channel: Channel,
        routing: StaticRouting,
        node_id: NodeId,
        mac_config: Optional[DcfConfig] = None,
        rng: Optional[RngRegistry] = None,
        queue_capacity: int = DEFAULT_CAPACITY,
    ):
        self.engine = engine
        self.channel = channel
        self.routing = routing
        self.node_id = node_id
        self.queue_capacity = queue_capacity
        self.mac = Dcf(engine, channel, node_id, mac_config, rng)
        self.mac.on_data_received = self._on_data_received
        self.mac.on_tx_success = self._on_tx_success
        # (kind, successor) -> (queue, entity)
        self._queues: Dict[Tuple[str, NodeId], Tuple[FifoQueue, TxEntity]] = {}
        self._flows: Dict[Hashable, Flow] = {}
        # Sniffer subscribers: fn(frame, now). Sent-packet subscribers:
        # fn(entity, packet, frame, now) fired on MAC-confirmed handoff.
        # The MAC's overheard upcall is wired on first subscription only
        # (see _WiringList): without sniffers the per-frame overhearing
        # chain stops at the MAC.
        self.sniffer_callbacks: List[Callable[[Frame, int], None]] = _WiringList(
            self._wire_sniffing
        )
        self.sent_callbacks: List[Callable[[TxEntity, Packet, Frame, int], None]] = []
        self.forwarded_callbacks: List[Callable[[TxEntity, Packet, Frame, int], None]] = []
        self.delivered_callbacks: List[Callable[[Packet, int], None]] = []
        self.source_drops = 0
        self.relay_drops = 0
        # Routes are static for the lifetime of a run (see
        # repro.net.routing), so the per-destination (queue, entity)
        # resolution is cached instead of redone for every packet.
        self._own_targets: Dict[NodeId, Tuple[FifoQueue, TxEntity]] = {}
        self._fwd_targets: Dict[NodeId, Tuple[FifoQueue, TxEntity]] = {}

    # -- flow registration -----------------------------------------------

    def register_flow(self, flow: Flow) -> None:
        """Make this node the sink-side accountant for ``flow``."""
        self._flows[flow.flow_id] = flow

    # -- queue management ---------------------------------------------------

    def queue_for(self, kind: str, successor: NodeId) -> Tuple[FifoQueue, TxEntity]:
        """Get or create the (queue, MAC entity) pair for a role+successor."""
        key = (kind, successor)
        if key not in self._queues:
            name = f"node{self.node_id}.{kind}.to{successor}"
            queue = FifoQueue(name, self.queue_capacity)
            entity = self.mac.add_entity(name, queue, successor)
            self._queues[key] = (queue, entity)
        return self._queues[key]

    def queues(self) -> Dict[Tuple[str, NodeId], Tuple[FifoQueue, TxEntity]]:
        """Snapshot of all (kind, successor) -> (queue, entity) pairs."""
        return dict(self._queues)

    def total_buffer_occupancy(self) -> int:
        """Packets waiting in all queues of this node (Figures 1 and 4)."""
        return sum(len(q) for q, _ in self._queues.values())

    def forwarding_occupancy(self) -> int:
        """Packets waiting in forwarding queues only."""
        return sum(len(q) for (kind, _), (q, _) in self._queues.items() if kind == FWD)

    def invalidate_route_caches(self) -> None:
        """Routing changed (churn re-route): drop per-destination caches.

        The next packet per destination re-resolves its next hop through
        the routing table and gets (or creates) the queue/entity for the
        new successor. Packets already sitting in a queue toward the old
        successor keep draining there — in-flight traffic follows the
        path it was committed to, exactly like the channel's in-flight
        frames resolving under their old delivery plan.
        """
        self._own_targets.clear()
        self._fwd_targets.clear()

    # -- traffic entry (source role) ---------------------------------------

    def own_queue(self, dst: NodeId) -> Tuple[FifoQueue, TxEntity]:
        """The (queue, entity) pair that carries local traffic to ``dst``.

        Resolved through the routing table on first use per destination
        (creating the queue and its MAC entity) and cached until
        :meth:`invalidate_route_caches`.
        """
        target = self._own_targets.get(dst)
        if target is None:
            next_hop = self.routing.next_hop(self.node_id, dst)
            target = self._own_targets[dst] = self.queue_for(OWN, next_hop)
        return target

    def send(self, packet: Packet) -> bool:
        """Inject a locally generated packet; returns False when dropped."""
        queue, entity = self.own_queue(packet.dst)
        accepted = queue.push(packet)
        if accepted:
            entity.notify_enqueue()
        else:
            self.source_drops += 1
        return accepted

    # -- MAC upcalls ----------------------------------------------------------

    def _on_data_received(self, frame: Frame, now: int) -> None:
        packet: Packet = frame.packet
        packet.hops += 1
        if packet.dst == self.node_id:
            flow = self._flows.get(packet.flow_id)
            if flow is not None:
                flow.note_delivered(packet, now)
            for callback in self.delivered_callbacks:
                callback(packet, now)
            return
        # Relay role: enqueue toward the next hop.
        target = self._fwd_targets.get(packet.dst)
        if target is None:
            next_hop = self.routing.next_hop(self.node_id, packet.dst)
            target = self._fwd_targets[packet.dst] = self.queue_for(FWD, next_hop)
        queue, entity = target
        accepted = queue.push(packet)
        if accepted:
            entity.notify_enqueue()
        else:
            self.relay_drops += 1

    def _wire_sniffing(self) -> None:
        """First sniffer subscribed: route MAC overhearing upward."""
        self.mac.on_data_overheard = self._on_data_overheard

    def _on_data_overheard(self, frame: Frame, now: int) -> None:
        for callback in self.sniffer_callbacks:
            callback(frame, now)

    def _on_tx_success(self, entity: TxEntity, packet: Packet, frame: Frame, *_: object) -> None:
        now = self.engine.now
        if packet.first_tx_at is None and packet.src == self.node_id:
            packet.first_tx_at = now
        for callback in self.sent_callbacks:
            callback(entity, packet, frame, now)

"""Rate-based EZ-flow variant (the paper's conclusion, Section 7).

For deployments with more neighbours than MAC queues, the paper
proposes keeping the BOE unchanged and letting the CAA control *the
scheduling rate at which packets are delivered from a routing-layer
queue to the MAC*, instead of touching ``CWmin`` (implementable with
Click, no driver support needed).

``RateScheduler`` implements that routing-layer queue: packets destined
to one successor are held in a bounded upper queue (``upper_capacity``
packets) and released into the (small) MAC queue on a paced clock.
``RateEZFlowController`` is :class:`~repro.core.controller.EZFlowController`
with another actuator: the same BOE and CAA (Algorithm 1) per
successor, whose window sets the pacer's release rate instead of the
MAC's ``CWmin``.

``attach_rate_ezflow`` attaches it to every node of a network,
mirroring :func:`repro.core.controller.attach_ezflow`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.core.config import EZFlowConfig
from repro.core.controller import EZFlowController
from repro.mac.frames import Frame
from repro.mac.queues import FifoQueue
from repro.net.node import NodeStack
from repro.net.packet import Packet
from repro.sim.engine import Engine, Event
from repro.sim.units import US_PER_S

NodeId = Hashable

#: Pacing rate at the CAA's smallest window (``mincw``), in packets/second.
MAX_RATE_PPS = 256.0


class RateScheduler:
    """Routing-layer pacer in front of one MAC queue.

    Locally generated (or forwarded) packets enter ``upper``; a timer
    releases them into the MAC queue at the current rate. The MAC queue
    is kept shallow (``mac_backlog_target``) so the pacing, not the MAC
    buffer, shapes the flow.
    """

    def __init__(
        self,
        engine: Engine,
        mac_queue: FifoQueue,
        notify_mac: Callable[[], None],
        rate_pps: float = MAX_RATE_PPS,
        mac_backlog_target: int = 2,
        upper_capacity: int = 100,
    ):
        self.engine = engine
        self.mac_queue = mac_queue
        self.notify_mac = notify_mac
        self.rate_pps = rate_pps
        self.mac_backlog_target = mac_backlog_target
        self.upper = FifoQueue("rate.upper", upper_capacity)
        self._timer: Optional[Event] = None
        self.released = 0

    def set_rate(self, rate_pps: float) -> None:
        """Change the release rate; takes effect at the next release."""
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.rate_pps = rate_pps

    def offer(self, packet: Packet) -> bool:
        """Accept a packet into the upper queue (False when full)."""
        accepted = self.upper.push(packet)
        if accepted:
            self._arm()
        return accepted

    def notify_enqueue(self) -> None:
        """A packet was pushed into ``upper``: arm the release clock."""
        self._arm()

    def _interval_us(self) -> int:
        return max(1, int(round(US_PER_S / self.rate_pps)))

    def _arm(self) -> None:
        if self._timer is None and not self.upper.is_empty():
            self._timer = self.engine.schedule(self._interval_us(), self._release)

    def _release(self) -> None:
        self._timer = None
        if not self.upper.is_empty() and len(self.mac_queue) < self.mac_backlog_target:
            packet = self.upper.pop()
            if self.mac_queue.push(packet):
                self.released += 1
                self.notify_mac()
        self._arm()


class RateEZFlowController(EZFlowController):
    """EZ-flow whose CAA paces a routing-layer queue per successor.

    The BOE and CAA per successor are the base controller's; only the
    actuator differs. Each CAA window ``cw`` sets its pacer's release
    rate to ``MAX_RATE_PPS * mincw / cw`` and leaves the MAC's CWmin
    alone, so doubling the window halves the rate, and the window
    bounds map onto 256 down to 0.125 pkt/s at the paper's defaults.
    """

    def __init__(self, node: NodeStack, config: Optional[EZFlowConfig] = None):
        super().__init__(node, config)
        self.schedulers: Dict[NodeId, RateScheduler] = {}
        self._wrap_queues()

    def _wrap_queues(self) -> None:
        """Divert local and relayed traffic through pacers (lazily built).

        Local traffic enters through ``NodeStack.own_queue``, which both
        ``NodeStack.send`` and the traffic sources resolve: here it
        yields the pacer's upper queue, with the pacer notified after
        each push.
        """

        def paced_own_queue(dst: NodeId) -> Tuple[FifoQueue, RateScheduler]:
            next_hop = self.node.routing.next_hop(self.node.node_id, dst)
            scheduler = self._scheduler_for(next_hop)
            return scheduler.upper, scheduler

        self.node.own_queue = paced_own_queue
        original_received = self.node.mac.on_data_received

        def paced_receive(frame: Frame, now: int) -> None:
            packet: Packet = frame.packet
            if packet.dst == self.node.node_id:
                original_received(frame, now)
                return
            packet.hops += 1
            next_hop = self.node.routing.next_hop(self.node.node_id, packet.dst)
            if not self._scheduler_for(next_hop).offer(packet):
                self.node.relay_drops += 1

        self.node.mac.on_data_received = paced_receive

    def _scheduler_for(self, successor: NodeId) -> RateScheduler:
        if successor not in self.schedulers:
            queue, entity = self.node.queue_for("fwd", successor)
            self.schedulers[successor] = RateScheduler(
                self.node.engine, queue, entity.notify_enqueue
            )
            # After the scheduler: the new CAA applies its initial window.
            self._machinery_for(successor)
        return self.schedulers[successor]

    def _apply_cwmin(self, successor: NodeId, cw: int) -> None:
        self.schedulers[successor].set_rate(MAX_RATE_PPS * self.config.mincw / cw)

    def current_rate(self, successor: NodeId) -> Optional[float]:
        """Current pacing rate toward ``successor`` in pkt/s (None if unknown)."""
        scheduler = self.schedulers.get(successor)
        return scheduler.rate_pps if scheduler is not None else None


def attach_rate_ezflow(
    nodes: Dict[NodeId, NodeStack],
    config: Optional[EZFlowConfig] = None,
) -> Dict[NodeId, RateEZFlowController]:
    """Attach the rate-based EZ-flow variant to every node."""
    return {
        node_id: RateEZFlowController(stack, config) for node_id, stack in nodes.items()
    }

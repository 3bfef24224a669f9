"""Rate-based EZ-flow variant (the paper's conclusion, Section 7).

For deployments with more neighbours than MAC queues, the paper
proposes keeping the BOE unchanged and letting the CAA control *the
scheduling rate at which packets are delivered from a routing-layer
queue to the MAC*, instead of touching ``CWmin`` (implementable with
Click, no driver support needed).

``RateScheduler`` implements that routing-layer queue: packets destined
to one successor are held in an unbounded-capacity upper queue and
released into the (small) MAC queue on a paced clock. ``RateCaa``
adapts the pacing interval with exactly the CAA state machine —
50-sample averages, ``b_min``/``b_max`` thresholds, the cw-style
countup/countdown hysteresis — but the actuator halves/doubles the
release *rate* instead of the contention window.

``attach_rate_ezflow`` wires a (BOE, RateCaa, RateScheduler) triple per
successor onto a node stack, mirroring :func:`repro.core.controller.attach_ezflow`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.boe import BufferOccupancyEstimator
from repro.core.config import EZFlowConfig
from repro.mac.frames import Frame, FrameKind
from repro.mac.queues import FifoQueue
from repro.net.node import NodeStack
from repro.net.packet import Packet
from repro.sim.engine import Engine, Event
from repro.sim.units import US_PER_S

NodeId = Hashable

#: Pacing-rate bounds in packets/second. The ratio maxrate/minrate
#: matches maxcw/mincw = 2^11, so the rate variant spans the same
#: dynamic range as the cw variant.
MIN_RATE_PPS = 0.125
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


class RateCaa:
    """The CAA state machine with a pacing-rate actuator.

    Identical thresholds and hysteresis to the cw-based CAA; the
    "aggressiveness" ladder is the release rate, so *over*utilisation
    halves the rate (≙ doubling cw) and underutilisation doubles it.
    The hysteresis counters reuse the cw ladder position: a node
    already throttled hard reacts quickly to underutilisation and
    slowly to overutilisation, preserving the fairness bias.
    """

    def __init__(
        self,
        config: EZFlowConfig,
        scheduler: RateScheduler,
        initial_rate_pps: float = MAX_RATE_PPS,
    ):
        self.config = config
        self.scheduler = scheduler
        self.rate_pps = initial_rate_pps
        self.countup = 0
        self.countdown = 0
        self._samples: List[int] = []
        scheduler.set_rate(self.rate_pps)

    def _ladder_position(self) -> int:
        """Equivalent of log2(cw): number of halvings below MAX_RATE."""
        return max(0, int(round(math.log2(MAX_RATE_PPS / self.rate_pps)))) + 4

    def on_sample(self, b_successor: int) -> Optional[float]:
        """Feed one raw BOE sample; decides per ``sample_window`` batch."""
        self._samples.append(b_successor)
        if len(self._samples) < self.config.sample_window:
            return None
        average = sum(self._samples) / len(self._samples)
        self._samples.clear()
        return self._decide(average)

    def _decide(self, average: float) -> float:
        cfg = self.config
        position = self._ladder_position()
        if average > cfg.b_max:
            self.countdown = 0
            self.countup += 1
            if self.countup >= max(1, position):
                self.rate_pps = max(self.rate_pps / 2, MIN_RATE_PPS)
                self.countup = 0
        elif average < cfg.b_min:
            self.countup = 0
            self.countdown += 1
            if self.countdown >= max(1, cfg.countdown_base - position):
                self.rate_pps = min(self.rate_pps * 2, MAX_RATE_PPS)
                self.countdown = 0
        else:
            self.countup = 0
            self.countdown = 0
        self.scheduler.set_rate(self.rate_pps)
        return average


class RateEZFlowController:
    """Rate-variant EZ-flow at one node: BOE + RateCaa per successor."""

    def __init__(self, node: NodeStack, config: Optional[EZFlowConfig] = None):
        self.node = node
        self.config = config or EZFlowConfig()
        self.boes: Dict[NodeId, BufferOccupancyEstimator] = {}
        self.caas: Dict[NodeId, RateCaa] = {}
        self.schedulers: Dict[NodeId, RateScheduler] = {}
        node.sent_callbacks.append(self._on_packet_sent)
        node.sniffer_callbacks.append(self._on_overheard)
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
            scheduler = RateScheduler(
                self.node.engine, queue, entity.notify_enqueue
            )
            boe = BufferOccupancyEstimator(successor, self.config.history_size)
            caa = RateCaa(self.config, scheduler)
            boe.sample_callbacks.append(caa.on_sample)
            self.schedulers[successor] = scheduler
            self.boes[successor] = boe
            self.caas[successor] = caa
        return self.schedulers[successor]

    def _on_packet_sent(self, entity, packet: Packet, frame: Frame, now: int) -> None:
        if packet.dst == entity.successor:
            return
        # Machinery exists for any successor we pace toward; packets on
        # unpaced queues (none, in practice) are ignored.
        boe = self.boes.get(entity.successor)
        if boe is not None:
            boe.note_sent(packet.checksum)

    def _on_overheard(self, frame: Frame, now: int) -> None:
        if frame.kind is not FrameKind.DATA or frame.packet is None:
            return
        boe = self.boes.get(frame.src)
        if boe is not None:
            boe.note_overheard(frame.packet.checksum)

    def current_rate(self, successor: NodeId) -> Optional[float]:
        """Current pacing rate toward ``successor`` in pkt/s (None if unknown)."""
        caa = self.caas.get(successor)
        return caa.rate_pps if caa is not None else None


def attach_rate_ezflow(
    nodes: Dict[NodeId, NodeStack],
    config: Optional[EZFlowConfig] = None,
) -> Dict[NodeId, RateEZFlowController]:
    """Attach the rate-based EZ-flow variant to every node."""
    return {
        node_id: RateEZFlowController(stack, config) for node_id, stack in nodes.items()
    }

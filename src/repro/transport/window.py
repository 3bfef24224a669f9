"""Sliding-window reliable transport with cumulative ACKs.

A deliberately simple TCP stand-in (fixed window, go-back-N retransmit
on timeout, cumulative ACKs): enough to create the paper's
*bidirectional* regime, where a data stream and its acknowledgement
stream contend for the same multi-hop wireless path in opposite
directions — the workload the transport-layer related work (WCP, the
counter-starvation policy) targets and EZ-flow claims to handle at the
MAC layer without end-to-end feedback.

The receiver side lives at the destination node: every in-order data
packet advances the cumulative ACK, which is sent as a small packet
routed back to the source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.net.flow import Flow
from repro.net.node import NodeStack
from repro.net.packet import Packet
from repro.net.routing import StaticRouting
from repro.sim.engine import Engine, Event
from repro.sim.units import seconds

ACK_BYTES = 40


@dataclass
class TransportConfig:
    """Window transport parameters.

    ``delayed_ack_s`` bounds how long the receiver may hold a partial
    ACK group (``ack_every > 1``) before flushing it — without it the
    final partial group of a transfer is never acknowledged and the
    sender only finishes after a full go-back-N timeout. It must stay
    well below ``retransmit_timeout_s`` for the flush to preempt
    pointless retransmissions. ``total_packets`` makes the transfer
    finite (None = stream until the flow's stop time).
    """

    window: int = 8
    data_bytes: int = 1000
    retransmit_timeout_s: float = 2.0
    ack_every: int = 1
    delayed_ack_s: float = 0.2
    total_packets: Optional[int] = None

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.ack_every < 1:
            raise ValueError("ack_every must be >= 1")
        if self.retransmit_timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.delayed_ack_s <= 0:
            raise ValueError("delayed-ACK flush timeout must be positive")
        if self.delayed_ack_s >= self.retransmit_timeout_s:
            raise ValueError("delayed-ACK flush must beat the retransmit timeout")
        if self.total_packets is not None and self.total_packets < 1:
            raise ValueError("total_packets must be >= 1 (or None)")


def install_reverse_routes(routing: StaticRouting, path: List[Hashable]) -> None:
    """Install the reverse of ``path`` so ACKs can travel back."""
    routing.install_path(list(reversed(path)))


class WindowedSender:
    """Go-back-N sender + receiver pair bound to one flow.

    The data flow's ``Flow`` object accounts delivered *data* packets;
    the ACK stream is internal (its packets use flow id
    ``"<flow>.ack"``) but is counted in ``acks_received``.
    """

    def __init__(
        self,
        engine: Engine,
        source: NodeStack,
        destination: NodeStack,
        flow: Flow,
        config: Optional[TransportConfig] = None,
    ):
        if flow.src != source.node_id or flow.dst != destination.node_id:
            raise ValueError("flow endpoints must match the given nodes")
        self.engine = engine
        self.source = source
        self.destination = destination
        self.flow = flow
        self.config = config or TransportConfig()
        # Sender state.
        self.next_seq = 1
        self.base = 1  # lowest unacknowledged sequence number
        self.acks_received = 0
        self.retransmissions = 0
        self._timer: Optional[Event] = None
        # Receiver state.
        self._expected = 1
        self._since_last_ack = 0
        self._ack_timer: Optional[Event] = None
        destination.delivered_callbacks.append(self._on_data_delivered)
        source.delivered_callbacks.append(self._on_ack_delivered)
        self._ack_flow = Flow(f"{flow.flow_id}.ack", src=destination.node_id, dst=source.node_id)
        source.register_flow(self._ack_flow)

    # -- sender ------------------------------------------------------------

    def start(self) -> None:
        """Begin sending at the flow's start time."""
        self.engine.schedule(max(0, self.flow.start_us - self.engine.now), self._fill)

    def _fill(self) -> None:
        """Send as much as the window (and the transfer size) allows.

        The retransmit timer is only (re)armed on progress — a new data
        packet entering the window — or when unacknowledged data has no
        timer at all. ACKs that open no send opportunity must not push
        an armed timer, or a trickle of them postpones go-back-N
        recovery indefinitely.
        """
        sent = False
        limit = self.config.total_packets
        while self.next_seq < self.base + self.config.window:
            if limit is not None and self.next_seq > limit:
                break
            if self.flow.stop_us is not None and self.engine.now >= self.flow.stop_us:
                break
            self.flow.note_generated()
            packet = Packet(
                flow_id=self.flow.flow_id,
                seq=self.next_seq,
                src=self.source.node_id,
                dst=self.destination.node_id,
                size_bytes=self.config.data_bytes,
                created_at=self.engine.now,
            )
            self.source.send(packet)
            self.next_seq += 1
            sent = True
        if self.base >= self.next_seq:
            # Nothing outstanding: a pending timeout would be a no-op.
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
        elif sent or self._timer is None:
            self._arm_timer()

    def _arm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.engine.schedule(
            seconds(self.config.retransmit_timeout_s), self._timeout
        )

    def _timeout(self) -> None:
        """Go-back-N: resend the whole window from ``base``."""
        self._timer = None
        if self.base >= self.next_seq:
            return  # everything acknowledged
        if self.flow.stop_us is not None and self.engine.now >= self.flow.stop_us:
            return
        for seq in range(self.base, self.next_seq):
            self.retransmissions += 1
            packet = Packet(
                flow_id=self.flow.flow_id,
                seq=seq,
                src=self.source.node_id,
                dst=self.destination.node_id,
                size_bytes=self.config.data_bytes,
                created_at=self.engine.now,
            )
            self.source.send(packet)
        self._arm_timer()

    def _on_ack_delivered(self, packet: Packet, now: int) -> None:
        if packet.flow_id != self._ack_flow.flow_id:
            return
        self.acks_received += 1
        cumulative = packet.seq
        if cumulative >= self.base:
            self.base = cumulative + 1
            self._fill()

    # -- receiver ---------------------------------------------------------

    def _on_data_delivered(self, packet: Packet, now: int) -> None:
        if packet.flow_id != self.flow.flow_id:
            return
        if packet.seq == self._expected:
            self._expected += 1
            self._since_last_ack += 1
            if self._since_last_ack >= self.config.ack_every:
                self._send_ack()
            elif self._ack_timer is None:
                # Partial group: flush it after a bounded delay so the
                # tail of a transfer completes without waiting out a
                # go-back-N timeout and its retransmissions.
                self._ack_timer = self.engine.schedule(
                    seconds(self.config.delayed_ack_s), self._flush_ack
                )
        elif packet.seq < self._expected:
            # Duplicate (go-back-N retransmission): re-ACK cumulatively.
            self._send_ack()

    def _flush_ack(self) -> None:
        self._ack_timer = None
        if self._since_last_ack > 0:
            self._send_ack()

    def _send_ack(self) -> None:
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._since_last_ack = 0
        ack = Packet(
            flow_id=self._ack_flow.flow_id,
            seq=self._expected - 1,
            src=self.destination.node_id,
            dst=self.source.node_id,
            size_bytes=ACK_BYTES,
            created_at=self.engine.now,
        )
        self.destination.send(ack)

    # -- metrics -------------------------------------------------------------

    @property
    def delivered_in_order(self) -> int:
        return self._expected - 1

    @property
    def complete(self) -> bool:
        """True when a finite transfer is fully acknowledged."""
        limit = self.config.total_packets
        return limit is not None and self.base > limit

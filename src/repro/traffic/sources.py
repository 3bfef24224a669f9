"""Traffic sources.

The paper drives every flow with CBR at 2 Mb/s — i.e. well above channel
capacity, so the source queue is permanently backlogged ("saturated
mode"). ``CbrSource`` reproduces that, and below capacity drives the
load sweep; ``SaturatedSource`` keeps the source MAC queue topped up
without modelling inter-arrival times at all (the greedy access point
of Figure 1). Every source sends ``DEFAULT_PACKET_BYTES`` packets, and
``Network.add_flow`` is where the paper layouts attach them.
"""

from __future__ import annotations

from repro.net.flow import Flow
from repro.net.node import NodeStack
from repro.net.packet import DEFAULT_PACKET_BYTES, Packet
from repro.sim.engine import Engine
from repro.sim.units import US_PER_S


class _SourceBase:
    """Common flow bookkeeping for all sources."""

    def __init__(self, engine: Engine, node: NodeStack, flow: Flow):
        if flow.src != node.node_id:
            raise ValueError("flow source must be the attached node")
        self.engine = engine
        self.node = node
        self.flow = flow
        self._seq = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("source already started")
        self._started = True
        delay = max(0, self.flow.start_us - self.engine.now)
        self.engine.post(delay, self._tick)

    def _make_packet(self) -> Packet:
        self._seq = seq = self._seq + 1
        flow = self.flow
        flow.generated += 1  # note_generated() inlined (hot path)
        return Packet(
            flow_id=flow.flow_id,
            seq=seq,
            src=flow.src,
            dst=flow.dst,
            created_at=self.engine.now,
        )

    def _emit(self) -> None:
        """Generate one packet into the node's own-traffic queue.

        Under the paper's saturating load the queue is usually full, so
        a refused packet is not built: its sequence number and
        ``flow.generated`` still advance, and the refusal goes through
        ``FifoQueue.push`` so the queue's drop counters and the node's
        ``source_drops`` count it as before.
        """
        node = self.node
        queue, entity = node.own_queue(self.flow.dst)
        if queue.is_full():
            self._seq += 1
            self.flow.generated += 1
            queue.push(None)
            node.source_drops += 1
        else:
            queue.push(self._make_packet())
            entity.notify_enqueue()

    def _tick(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class CbrSource(_SourceBase):
    """Constant bit rate source (paper default: 2 Mb/s, saturating)."""

    def __init__(
        self,
        engine: Engine,
        node: NodeStack,
        flow: Flow,
        rate_bps: float = 2_000_000.0,
    ):
        super().__init__(engine, node, flow)
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.interval_us = max(1, int(round(DEFAULT_PACKET_BYTES * 8 * US_PER_S / rate_bps)))

    def _tick(self) -> None:
        engine = self.engine
        now = engine.now
        flow = self.flow
        stop = flow.stop_us
        if stop is not None and now >= stop:
            return
        # active_at(now) inlined: the stop bound is already checked.
        if now >= flow.start_us:
            self._emit()
        engine.post(self.interval_us, self._tick)


class SaturatedSource(_SourceBase):
    """Keeps the source queue full — the greedy access point of Figure 1.

    Refills the node's own-traffic queue to capacity every
    ``POLL_INTERVAL_US``; the MAC therefore never idles for lack of local
    traffic.
    """

    POLL_INTERVAL_US = 2_000

    def __init__(self, engine: Engine, node: NodeStack, flow: Flow):
        super().__init__(engine, node, flow)
        # Routing is static for the lifetime of a network, so the (queue,
        # entity) pair is resolved once instead of on every 2 ms poll.
        self._target = None

    def _tick(self) -> None:
        engine = self.engine
        now = engine.now
        flow = self.flow
        stop = flow.stop_us
        if stop is not None and now >= stop:
            return
        # active_at(now) inlined: the stop bound is already checked.
        if now >= flow.start_us:
            if self._target is None:
                next_hop = self.node.routing.next_hop(self.node.node_id, flow.dst)
                self._target = self.node.queue_for("own", next_hop)
            queue, entity = self._target
            if not queue.is_full():
                while not queue.is_full():
                    queue.push(self._make_packet())
                entity.notify_enqueue()
        engine.post(self.POLL_INTERVAL_US, self._tick)

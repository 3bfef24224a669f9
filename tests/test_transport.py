"""Tests for the window transport (bidirectional TCP stand-in)."""

import pytest

from repro.core import attach_ezflow
from repro.net.flow import Flow
from repro.sim.units import seconds
from repro.topology.linear import linear_chain
from repro.transport import TransportConfig, WindowedSender, install_reverse_routes


def build(hops=4, seed=3, window=8, ack_every=1, timeout_s=2.0, total_packets=None):
    network = linear_chain(hops=hops, seed=seed, rate_bps=1000)
    network.sources.clear()  # replace the CBR source with the transport
    path = list(range(hops + 1))
    install_reverse_routes(network.routing, path)
    flow = Flow("T1", src=0, dst=hops)
    network.flows["T1"] = flow
    network.nodes[hops].register_flow(flow)
    sender = WindowedSender(
        network.engine,
        network.nodes[0],
        network.nodes[hops],
        flow,
        TransportConfig(
            window=window,
            ack_every=ack_every,
            retransmit_timeout_s=timeout_s,
            total_packets=total_packets,
        ),
    )
    return network, flow, sender


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TransportConfig(window=0)
        with pytest.raises(ValueError):
            TransportConfig(ack_every=0)
        with pytest.raises(ValueError):
            TransportConfig(retransmit_timeout_s=0)

    def test_endpoints_checked(self):
        network, flow, sender = build()
        bad_flow = Flow("T2", src=1, dst=4)
        with pytest.raises(ValueError):
            WindowedSender(network.engine, network.nodes[0], network.nodes[4], bad_flow)


class TestReliableDelivery:
    def test_in_order_delivery_advances(self):
        network, flow, sender = build()
        sender.start()
        network.engine.run(until=seconds(30))
        assert sender.delivered_in_order > 300
        assert sender.base > 300

    def test_no_retransmissions_on_clean_path(self):
        network, flow, sender = build(window=4)
        sender.start()
        network.engine.run(until=seconds(30))
        assert sender.retransmissions == 0

    def test_ack_stream_travels_reverse_path(self):
        network, flow, sender = build()
        sender.start()
        network.engine.run(until=seconds(10))
        assert sender.acks_received > 50
        # ACK packets traverse the relays in reverse.
        reverse_queue = network.nodes[2].queue_for("fwd", 1)[0]
        assert reverse_queue.dequeued > 0

    def test_recovers_from_lossy_link(self):
        network, flow, sender = build(timeout_s=1.0)
        network.channel.set_link_loss(2, 3, 0.4)  # forward-path loss
        sender.start()
        network.engine.run(until=seconds(60))
        # MAC retries absorb most loss; the transport must keep making
        # progress regardless.
        assert sender.delivered_in_order > 200

    def test_go_back_n_retransmits_on_ack_loss(self):
        network, flow, sender = build(timeout_s=0.5)
        network.channel.set_link_loss(1, 0, 0.9)  # reverse-path loss
        sender.start()
        network.engine.run(until=seconds(60))
        assert sender.retransmissions > 0
        assert sender.delivered_in_order > 10  # still progresses

    def test_stop_time_respected(self):
        network, flow, sender = build()
        flow.stop_us = seconds(5)
        sender.start()
        network.engine.run(until=seconds(20))
        generated_at_stop = flow.generated
        network.engine.run(until=seconds(30))
        assert flow.generated == generated_at_stop


class TestWindowBehaviour:
    def test_window_limits_outstanding(self):
        network, flow, sender = build(window=4)
        sender.start()
        network.engine.run(until=seconds(10))
        assert sender.next_seq - sender.base <= 4

    def test_larger_window_no_slower(self):
        def goodput(window):
            network, flow, sender = build(window=window, seed=5)
            sender.start()
            network.engine.run(until=seconds(40))
            return flow.throughput_bps(seconds(10), seconds(40))

        assert goodput(16) >= 0.8 * goodput(2)

    def test_delayed_ack_coalescing(self):
        network, flow, sender = build(ack_every=4)
        sender.start()
        network.engine.run(until=seconds(20))
        # Roughly one ACK per four data packets.
        ratio = sender.delivered_in_order / max(1, sender.acks_received)
        assert ratio > 2.0


class TestTailAckFlush:
    def test_odd_transfer_completes_without_retransmissions(self):
        """Regression: with ack_every=2 and an odd packet count, the
        final in-order packet formed a partial ACK group that was never
        acknowledged — the transfer only 'finished' after a go-back-N
        timeout retransmitted it pointlessly."""
        network, flow, sender = build(window=4, ack_every=2, total_packets=7)
        sender.start()
        network.engine.run(until=seconds(30))
        assert sender.delivered_in_order == 7
        assert sender.complete
        assert sender.retransmissions == 0

    def test_flush_preempts_timeout(self):
        """The tail ACK must arrive on the delayed-ack clock, not the
        retransmit clock: well before timeout the sender is done."""
        network, flow, sender = build(window=4, ack_every=4, total_packets=5, timeout_s=5.0)
        sender.start()
        network.engine.run(until=seconds(2))  # << retransmit_timeout_s
        assert sender.complete
        assert sender.retransmissions == 0

    def test_delayed_ack_config_validated(self):
        with pytest.raises(ValueError):
            TransportConfig(delayed_ack_s=0)
        with pytest.raises(ValueError):
            TransportConfig(delayed_ack_s=3.0, retransmit_timeout_s=2.0)
        with pytest.raises(ValueError):
            TransportConfig(total_packets=0)


class TestTimerOnlyOnProgress:
    def ack(self, sender, seq):
        from repro.net.packet import Packet
        from repro.transport.window import ACK_BYTES

        return Packet(
            flow_id=sender._ack_flow.flow_id,
            seq=seq,
            src=sender.destination.node_id,
            dst=sender.source.node_id,
            size_bytes=ACK_BYTES,
            created_at=sender.engine.now,
        )

    def test_ack_without_send_opportunity_leaves_timer_alone(self):
        """Regression: _fill re-armed the retransmit timer even when no
        new packet was sent, so a trickle of ACKs that opened no send
        opportunity postponed go-back-N recovery forever."""
        network, flow, sender = build(window=2, total_packets=3)
        sender._fill()  # sends seq 1, 2 and arms the timer
        timer = sender._timer
        assert timer is not None
        # ACK for seq 1: window slides, seq 3 goes out -> progress,
        # the timer is legitimately reset.
        sender._on_ack_delivered(self.ack(sender, 1), network.engine.now)
        assert sender.next_seq == 4
        progressed = sender._timer
        assert progressed is not timer
        # ACK for seq 2: transfer limit reached, nothing new to send,
        # seq 3 still outstanding -> the armed timer must NOT be pushed.
        sender._on_ack_delivered(self.ack(sender, 2), network.engine.now)
        assert sender._timer is progressed
        # Stale cumulative ACK: ignored entirely.
        sender._on_ack_delivered(self.ack(sender, 1), network.engine.now)
        assert sender._timer is progressed

    def test_timer_cancelled_when_all_acked(self):
        network, flow, sender = build(window=2, total_packets=2)
        sender._fill()
        assert sender._timer is not None
        sender._on_ack_delivered(self.ack(sender, 2), network.engine.now)
        assert sender._timer is None
        assert sender.complete


class TestBidirectionalWithEzflow:
    def test_ezflow_compatible_with_transport(self):
        """The paper's claim: EZ-flow works for bidirectional traffic.
        With a congesting window, EZ-flow must not hurt goodput and
        should reduce path delay."""

        def run(ezflow):
            network, flow, sender = build(window=64, seed=3)
            if ezflow:
                attach_ezflow(network.nodes)
            sender.start()
            network.engine.run(until=seconds(120))
            return (
                flow.throughput_bps(seconds(40), seconds(120)),
                flow.mean_path_delay_s(seconds(40), seconds(120)),
            )

        thr_std, delay_std = run(False)
        thr_ez, delay_ez = run(True)
        assert thr_ez >= 0.95 * thr_std
        assert delay_ez <= 1.05 * delay_std


class TestMultiQueueRegression:
    def test_relay_entities_never_deadlock(self):
        """Regression for the orphaned-TX bug: with data and ACK streams
        crossing at every relay, no entity may stall in TX state while
        the radio is free."""
        network, flow, sender = build(window=16, seed=7)
        sender.start()
        network.engine.run(until=seconds(60))
        for node in network.nodes.values():
            for entity in node.mac.entities:
                if entity.state == "tx":
                    assert node.mac._transmitting_entity is entity
        # And the system is still making progress at the horizon.
        late = flow.delivered_bits.count_in(seconds(50), seconds(60))
        assert late > 0

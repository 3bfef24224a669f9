"""Tests for the shared channel: carrier sense, collisions, capture,
erasures and overhearing."""

import pytest

from repro.phy.channel import Channel, PhyListener
from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class Recorder(PhyListener):
    """Records every PHY callback for assertions."""

    def __init__(self):
        self.busy = []
        self.idle = []
        self.received = []
        self.overheard = []
        self.errors = []

    def on_medium_busy(self, now):
        self.busy.append(now)

    def on_medium_idle(self, now):
        self.idle.append(now)

    def on_frame_received(self, frame, now):
        self.received.append((frame, now))

    def on_frame_overheard(self, frame, now):
        self.overheard.append((frame, now))

    def on_frame_error(self, now):
        self.errors.append(now)


class FakeFrame:
    def __init__(self, dst):
        self.dst = dst


def chain_channel(count=4, spacing=200.0, sense=550.0, seed=0):
    engine = Engine()
    positions = {i: (i * spacing, 0.0) for i in range(count)}
    conn = GeometricConnectivity(positions, RangeModel(250.0, sense))
    channel = Channel(engine, conn, RngRegistry(seed))
    listeners = {}
    for i in range(count):
        listeners[i] = Recorder()
        channel.attach(i, listeners[i])
    return engine, channel, listeners


class TestBasicDelivery:
    def test_addressed_frame_received_at_end(self):
        engine, channel, listeners = chain_channel()
        frame = FakeFrame(dst=1)
        channel.transmit(0, frame, 100)
        engine.run()
        assert [(f, t) for f, t in listeners[1].received] == [(frame, 100)]

    def test_frame_overheard_by_non_destination_in_rx_range(self):
        engine, channel, listeners = chain_channel()
        channel.transmit(1, FakeFrame(dst=2), 100)
        engine.run()
        assert len(listeners[0].overheard) == 1  # node 0 decodes node 1

    def test_sense_only_node_gets_no_frame_and_no_error(self):
        engine, channel, listeners = chain_channel()
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert listeners[2].received == []
        assert listeners[2].overheard == []
        assert listeners[2].errors == []  # no PLCP decode attempted

    def test_out_of_range_node_unaffected(self):
        engine, channel, listeners = chain_channel()
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert listeners[3].busy == []


class TestCarrierSense:
    def test_medium_busy_during_transmission(self):
        engine, channel, listeners = chain_channel()
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run(until=50)
        assert not channel.is_idle(1)
        assert not channel.is_idle(2)

    def test_medium_idle_after_transmission(self):
        engine, channel, listeners = chain_channel()
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert channel.is_idle(1)
        assert listeners[1].busy == [0]
        assert listeners[1].idle == [100]

    def test_sender_busy_while_transmitting(self):
        engine, channel, listeners = chain_channel()
        channel.transmit(0, FakeFrame(dst=1), 100)
        assert channel.is_transmitting(0)
        assert not channel.is_idle(0)
        engine.run()
        assert not channel.is_transmitting(0)

    def test_busy_idle_transitions_fire_once_for_overlap(self):
        engine, channel, listeners = chain_channel()
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.schedule(50, lambda: channel.transmit(2, FakeFrame(dst=3), 100))
        engine.run()
        # node 1 senses both: one busy at t=0, one idle at t=150
        assert listeners[1].busy == [0]
        assert listeners[1].idle == [150]

    def test_double_transmit_from_same_node_rejected(self):
        engine, channel, listeners = chain_channel()
        channel.transmit(0, FakeFrame(dst=1), 100)
        with pytest.raises(RuntimeError):
            channel.transmit(0, FakeFrame(dst=1), 100)

    def test_nonpositive_duration_rejected(self):
        engine, channel, listeners = chain_channel()
        with pytest.raises(ValueError):
            channel.transmit(0, FakeFrame(dst=1), 0)


class TestCollisionsAndCapture:
    def test_equal_power_overlap_collides(self):
        # Nodes 0 and 2 both adjacent to node 1: equal power -> collision.
        engine, channel, listeners = chain_channel(sense=350.0)  # 0,2 hidden
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.schedule(50, lambda: channel.transmit(2, FakeFrame(dst=1), 100))
        engine.run()
        assert listeners[1].received == []
        assert len(listeners[1].errors) == 2

    def test_two_hop_interferer_is_captured_through(self):
        # Sender at 200 m, interferer at 400 m: 12 dB SIR -> capture.
        engine, channel, listeners = chain_channel(count=5, sense=550.0)
        channel.transmit(0, FakeFrame(dst=1), 100)
        # Node 3 transmitting (it would never do this under CSMA since it
        # senses node 0 at 550 m... use 4-chain distance: node 3 is 600 m
        # from node 0 -> hidden, 400 m from node 1 -> interference).
        engine.schedule(10, lambda: channel.transmit(3, FakeFrame(dst=4), 100))
        engine.run()
        assert len(listeners[1].received) == 1  # captured node 0's frame

    def test_receiver_transmitting_cannot_decode(self):
        engine, channel, listeners = chain_channel()
        channel.transmit(1, FakeFrame(dst=2), 200)
        engine.schedule(10, lambda: channel.transmit(0, FakeFrame(dst=1), 50))
        engine.run()
        assert listeners[1].received == []

    def test_parallel_hidden_links_both_succeed(self):
        # The Table-4 region D pattern: links 0->1 and 3->4 in parallel.
        engine, channel, listeners = chain_channel(count=5, sense=550.0)
        channel.transmit(0, FakeFrame(dst=1), 100)
        channel.transmit(3, FakeFrame(dst=4), 100)
        engine.run()
        assert len(listeners[1].received) == 1
        assert len(listeners[4].received) == 1

    def test_collision_reported_as_error_for_eifs(self):
        engine, channel, listeners = chain_channel(sense=350.0)
        channel.transmit(0, FakeFrame(dst=1), 100)
        channel.transmit(2, FakeFrame(dst=1), 100)
        engine.run()
        assert len(listeners[1].errors) == 2


class TestErasures:
    def test_lossy_link_drops_frames(self):
        engine, channel, listeners = chain_channel(seed=1)
        channel.set_link_loss(0, 1, 1.0)
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert listeners[1].received == []
        assert len(listeners[1].errors) == 1

    def test_lossless_link_default(self):
        engine, channel, listeners = chain_channel(seed=1)
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert len(listeners[1].received) == 1

    def test_loss_probability_validated(self):
        engine, channel, listeners = chain_channel()
        with pytest.raises(ValueError):
            channel.set_link_loss(0, 1, 1.5)

    def test_loss_is_directional(self):
        engine, channel, listeners = chain_channel(seed=1)
        channel.set_link_loss(0, 1, 1.0)
        channel.transmit(1, FakeFrame(dst=0), 100)
        engine.run()
        assert len(listeners[0].received) == 1

    def test_statistical_loss_rate(self):
        engine, channel, listeners = chain_channel(seed=42)
        channel.set_link_loss(0, 1, 0.3)
        n = 500
        for i in range(n):
            engine.schedule(i * 200, lambda: channel.transmit(0, FakeFrame(dst=1), 100))
        engine.run()
        received = len(listeners[1].received)
        assert 0.6 * n < received < 0.8 * n


class TestOverhearLoss:
    def test_full_overhear_loss_silences_sniffer(self):
        engine, channel, listeners = chain_channel()
        channel.set_overhear_loss(0, 1.0)
        channel.transmit(1, FakeFrame(dst=2), 100)
        engine.run()
        assert listeners[0].overheard == []

    def test_overhear_loss_does_not_affect_addressed_delivery(self):
        engine, channel, listeners = chain_channel()
        channel.set_overhear_loss(1, 1.0)
        channel.transmit(0, FakeFrame(dst=1), 100)
        engine.run()
        assert len(listeners[1].received) == 1

    def test_overhear_loss_validated(self):
        engine, channel, listeners = chain_channel()
        with pytest.raises(ValueError):
            channel.set_overhear_loss(0, -0.1)


class TestAttach:
    def test_attach_unknown_node_rejected(self):
        engine, channel, listeners = chain_channel()
        with pytest.raises(ValueError):
            channel.attach(99, Recorder())

    def test_capture_ratio_validated(self):
        engine = Engine()
        conn = GeometricConnectivity({0: (0, 0), 1: (100, 0)}, RangeModel())
        with pytest.raises(ValueError):
            Channel(engine, conn, RngRegistry(0), capture_ratio=0.5)

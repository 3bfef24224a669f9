"""Tests for the DCF MAC: backoff, retries, ACKs, CWmin adaptation."""

import pytest

from repro.mac.dcf import Dcf, DcfConfig, OrderedDedup
from repro.mac.queues import FifoQueue
from repro.net.packet import Packet
from repro.phy.channel import Channel
from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


def make_pair(seed=0, config=None, count=2, spacing=200.0):
    """Two (or more) nodes in a row with attached MACs."""
    engine = Engine()
    positions = {i: (i * spacing, 0.0) for i in range(count)}
    conn = GeometricConnectivity(positions, RangeModel())
    channel = Channel(engine, conn, RngRegistry(seed))
    macs = [
        Dcf(engine, channel, i, config or DcfConfig(), RngRegistry(seed + 1))
        for i in range(count)
    ]
    return engine, channel, macs


def packet(seq=1, dst=1):
    return Packet(flow_id="F", seq=seq, src=0, dst=dst)


class TestConfig:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            DcfConfig(cwmin=15)
        with pytest.raises(ValueError):
            DcfConfig(cwmax=100)

    def test_cwmax_at_least_cwmin(self):
        with pytest.raises(ValueError):
            DcfConfig(cwmin=64, cwmax=32)

    def test_retry_limit_positive(self):
        with pytest.raises(ValueError):
            DcfConfig(retry_limit=0)

    def test_difs_formula(self):
        config = DcfConfig()
        assert config.rates.difs_us == config.rates.sifs_us + 2 * config.rates.slot_time_us


class TestSingleLink:
    def test_successful_delivery_with_ack(self):
        engine, channel, (tx, rx) = make_pair()
        delivered = []
        rx.on_data_received = lambda frame, now: delivered.append(frame)
        queue = FifoQueue()
        entity = tx.add_entity("q", queue, successor=1)
        queue.push(packet())
        entity.notify_enqueue()
        engine.run(until=100_000)
        assert len(delivered) == 1
        assert entity.tx_successes == 1
        assert queue.is_empty()

    def test_success_callback_fires(self):
        engine, channel, (tx, rx) = make_pair()
        successes = []
        tx.on_tx_success = lambda entity, pkt, frame: successes.append(pkt)
        queue = FifoQueue()
        entity = tx.add_entity("q", queue, successor=1)
        p = packet()
        queue.push(p)
        entity.notify_enqueue()
        engine.run(until=100_000)
        assert successes == [p]

    def test_queue_drains_in_order(self):
        engine, channel, (tx, rx) = make_pair()
        received = []
        rx.on_data_received = lambda frame, now: received.append(frame.packet.seq)
        queue = FifoQueue()
        entity = tx.add_entity("q", queue, successor=1)
        for seq in range(1, 6):
            queue.push(packet(seq))
        entity.notify_enqueue()
        engine.run(until=1_000_000)
        assert received == [1, 2, 3, 4, 5]

    def test_retry_until_drop_on_dead_link(self):
        config = DcfConfig(retry_limit=3)
        engine, channel, (tx, rx) = make_pair(config=config)
        channel.set_link_loss(0, 1, 1.0)
        drops = []
        tx.on_tx_drop = lambda entity, pkt: drops.append(pkt)
        queue = FifoQueue()
        entity = tx.add_entity("q", queue, successor=1)
        queue.push(packet())
        entity.notify_enqueue()
        engine.run(until=10_000_000)
        assert len(drops) == 1
        assert entity.tx_attempts == 4  # initial + 3 retries
        assert queue.is_empty()

    def test_cw_doubles_on_failure_and_resets(self):
        config = DcfConfig(retry_limit=2, cwmin=16, cwmax=1024)
        engine, channel, (tx, rx) = make_pair(config=config)
        channel.set_link_loss(0, 1, 1.0)
        queue = FifoQueue()
        entity = tx.add_entity("q", queue, successor=1)
        observed = []
        original = entity._draw_backoff

        def spy():
            observed.append(entity.cw)
            original()

        entity._draw_backoff = spy
        queue.push(packet())
        entity.notify_enqueue()
        engine.run(until=10_000_000)
        # first draw at cwmin, then doubled per retry; reset after drop
        assert observed[0] == 16
        assert 32 in observed
        assert entity.cw == 16


class TestCwminAdaptation:
    def test_set_cwmin_changes_effective_window(self):
        engine, channel, macs = make_pair()
        entity = macs[0].add_entity("q", FifoQueue(), successor=1)
        entity.set_cwmin(256)
        assert entity.effective_cwmin() == 256

    def test_set_cwmin_validates_power_of_two(self):
        engine, channel, macs = make_pair()
        entity = macs[0].add_entity("q", FifoQueue(), successor=1)
        with pytest.raises(ValueError):
            entity.set_cwmin(100)

    def test_hw_cap_clamps_effective_cwmin(self):
        config = DcfConfig(hw_cw_cap=1024)
        engine, channel, macs = make_pair(config=config)
        entity = macs[0].add_entity("q", FifoQueue(), successor=1)
        entity.set_cwmin(32768)
        assert entity.cwmin == 32768  # requested value kept
        assert entity.effective_cwmin() == 1024  # Madwifi flaw

    def test_larger_cwmin_slows_access(self):
        # Statistical: with a huge window the sender completes fewer frames.
        def run_with(cwmin):
            engine, channel, (tx, rx) = make_pair(seed=3)
            queue = FifoQueue(capacity=1000)
            entity = tx.add_entity("q", queue, successor=1)
            entity.set_cwmin(cwmin)
            for seq in range(200):
                queue.push(packet(seq))
            entity.notify_enqueue()
            engine.run(until=2_000_000)
            return entity.tx_successes

        assert run_with(16) > run_with(2048) * 1.5


class TestDuplicateFiltering:
    def test_duplicate_sequence_filtered(self):
        engine, channel, (tx, rx) = make_pair()
        received = []
        rx.on_data_received = lambda frame, now: received.append(frame)
        from repro.mac.frames import make_data_frame

        p = packet()
        frame1 = make_data_frame(0, 1, p, seq=5)
        frame2 = make_data_frame(0, 1, p, seq=5)
        rx.on_frame_received(frame1, 0)
        rx.on_frame_received(frame2, 1)
        assert len(received) == 1

    def test_ordered_dedup_evicts_oldest(self):
        dedup = OrderedDedup(size=2)
        assert not dedup.seen(("a", 1))
        assert not dedup.seen(("a", 2))
        assert not dedup.seen(("a", 3))  # evicts ("a", 1)
        assert not dedup.seen(("a", 1))  # forgotten -> treated as new
        assert dedup.seen(("a", 3))


class TestMultiEntity:
    def test_two_entities_share_radio(self):
        engine, channel, macs = make_pair(count=3)
        tx = macs[1]  # middle node talks to both sides
        received = {0: [], 2: []}
        macs[0].on_data_received = lambda f, now: received[0].append(f)
        macs[2].on_data_received = lambda f, now: received[2].append(f)
        q_left, q_right = FifoQueue(), FifoQueue()
        e_left = tx.add_entity("left", q_left, successor=0)
        e_right = tx.add_entity("right", q_right, successor=2)
        for seq in range(5):
            q_left.push(Packet(flow_id="L", seq=seq, src=1, dst=0))
            q_right.push(Packet(flow_id="R", seq=seq, src=1, dst=2))
        e_left.notify_enqueue()
        e_right.notify_enqueue()
        engine.run(until=2_000_000)
        assert len(received[0]) == 5
        assert len(received[2]) == 5

    def test_entities_have_independent_cwmin(self):
        engine, channel, macs = make_pair(count=3)
        e1 = macs[1].add_entity("a", FifoQueue(), successor=0)
        e2 = macs[1].add_entity("b", FifoQueue(), successor=2)
        e1.set_cwmin(64)
        assert e2.effective_cwmin() == 16

    def test_larger_aifsn_defers_longer_and_loses_airtime(self):
        # Per-entity AIFSN (802.11e's other contention parameter): at
        # equal CWmin, the queue waiting 5 more slots per access loses.
        engine, channel, macs = make_pair(seed=3, count=3)
        tx = macs[1]
        assert tx.current_ifs_us(7) > tx.current_ifs_us(2)
        q_fast, q_slow = FifoQueue(capacity=1000), FifoQueue(capacity=1000)
        e_fast = tx.add_entity("fast", q_fast, successor=0)
        e_slow = tx.add_entity("slow", q_slow, successor=2)
        e_slow.aifsn = 7
        for seq in range(400):
            q_fast.push(Packet(flow_id="A", seq=seq, src=1, dst=0))
            q_slow.push(Packet(flow_id="B", seq=seq, src=1, dst=2))
        e_fast.notify_enqueue()
        e_slow.notify_enqueue()
        engine.run(until=2_000_000)
        assert e_fast.tx_successes > 2 * e_slow.tx_successes

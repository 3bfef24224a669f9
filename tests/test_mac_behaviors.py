"""Deeper MAC behaviour tests: EIFS, hidden terminals, timing, capture
interplay — the micro-mechanics the turbulence phenomena rest on."""

from repro.mac.dcf import Dcf, DcfConfig, TxEntity
from repro.mac.queues import FifoQueue
from repro.net.packet import Packet
from repro.phy.channel import Channel
from repro.phy.connectivity import ExplicitConnectivity, GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.phy.rates import DSSS_1MBPS, DSSS_11MBPS
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import seconds


def build(positions, sense=550.0, seed=0, config=None):
    engine = Engine()
    conn = GeometricConnectivity(positions, RangeModel(250.0, sense))
    channel = Channel(engine, conn, RngRegistry(seed))
    macs = {
        node: Dcf(engine, channel, node, config or DcfConfig(), RngRegistry(seed + 1))
        for node in positions
    }
    return engine, channel, macs


class TestTiming:
    def test_80211b_constants(self):
        assert DSSS_1MBPS.slot_time_us == 20
        assert DSSS_1MBPS.sifs_us == 10
        assert DSSS_1MBPS.difs_us == 50
        assert DSSS_1MBPS.plcp_overhead_us() == 192

    def test_frame_time_1mbps(self):
        # 1028-byte MAC frame = 8224 bits at 1 Mb/s + 192 us PLCP
        assert DSSS_1MBPS.frame_tx_time_us(1028) == 8416

    def test_ack_time(self):
        # 14 bytes = 112 bits + 192 us PLCP
        assert DSSS_1MBPS.ack_tx_time_us() == 304

    def test_eifs_is_sifs_ack_difs(self):
        assert DSSS_1MBPS.eifs_us == 10 + 304 + 50

    def test_11mbps_payload_faster(self):
        assert DSSS_11MBPS.frame_tx_time_us(1028) < DSSS_1MBPS.frame_tx_time_us(1028)

    def test_single_link_saturation_throughput(self):
        """The analytic per-packet exchange time bounds the measured
        single-link rate: DIFS + backoff + DATA + SIFS + ACK."""
        positions = {0: (0.0, 0.0), 1: (200.0, 0.0)}
        engine, channel, macs = build(positions, seed=2)
        received = []
        macs[1].on_data_received = lambda f, now: received.append(now)
        queue = FifoQueue(capacity=1000)
        entity = macs[0].add_entity("q", queue, successor=1)
        for seq in range(500):
            queue.push(Packet(flow_id="F", seq=seq, src=0, dst=1))
        entity.notify_enqueue()
        engine.run(until=seconds(2))
        rate_kbps = len(received) * 8000 / 2 / 1000
        # exchange = 50 + ~150 + 8416 + 10 + 304 ~= 8930 us -> ~896 kb/s
        assert 850 < rate_kbps < 920


class TestEifs:
    def test_error_then_eifs_deferral(self):
        positions = {0: (0.0, 0.0), 1: (200.0, 0.0)}
        engine, channel, macs = build(positions)
        macs[0].on_frame_error(engine.now)
        assert macs[0].current_ifs_us() == DSSS_1MBPS.eifs_us

    def test_successful_reception_clears_eifs(self):
        positions = {0: (0.0, 0.0), 1: (200.0, 0.0)}
        engine, channel, macs = build(positions)
        macs[0].on_frame_error(engine.now)
        from repro.mac.frames import make_data_frame

        frame = make_data_frame(1, 0, Packet(flow_id="F", seq=1, src=1, dst=0), 1)
        macs[0].on_frame_received(frame, engine.now)
        assert macs[0].current_ifs_us() == DSSS_1MBPS.difs_us

    def test_overheard_frame_clears_eifs(self):
        positions = {0: (0.0, 0.0), 1: (200.0, 0.0), 2: (400.0, 0.0)}
        engine, channel, macs = build(positions)
        macs[0].on_frame_error(engine.now)
        from repro.mac.frames import make_data_frame

        frame = make_data_frame(1, 2, Packet(flow_id="F", seq=1, src=1, dst=2), 1)
        macs[0].on_frame_overheard(frame, engine.now)
        assert macs[0].current_ifs_us() == DSSS_1MBPS.difs_us


class TestHiddenTerminals:
    def chain4(self, sense=350.0, seed=3):
        """4 nodes at 200 m spacing with 1-hop sensing: 0 and 2 hidden."""
        positions = {i: (i * 200.0, 0.0) for i in range(4)}
        return build(positions, sense=sense, seed=seed)

    def test_hidden_senders_collide_at_common_receiver(self):
        engine, channel, macs = self.chain4()
        q0, q2 = FifoQueue(capacity=500), FifoQueue(capacity=500)
        e0 = macs[0].add_entity("q0", q0, successor=1)
        e2 = macs[2].add_entity("q2", q2, successor=1)
        for seq in range(200):
            q0.push(Packet(flow_id="A", seq=seq, src=0, dst=1))
            q2.push(Packet(flow_id="B", seq=seq, src=2, dst=1))
        e0.notify_enqueue()
        e2.notify_enqueue()
        engine.run(until=seconds(3))
        total_attempts = e0.tx_attempts + e2.tx_attempts
        total_successes = e0.tx_successes + e2.tx_successes
        # Saturated hidden senders with 8.4 ms frames collide massively.
        assert total_successes < 0.5 * total_attempts

    def test_sensed_senders_rarely_collide(self):
        engine, channel, macs = self.chain4(sense=550.0)
        q0, q2 = FifoQueue(capacity=500), FifoQueue(capacity=500)
        e0 = macs[0].add_entity("q0", q0, successor=1)
        e2 = macs[2].add_entity("q2", q2, successor=1)
        for seq in range(200):
            q0.push(Packet(flow_id="A", seq=seq, src=0, dst=1))
            q2.push(Packet(flow_id="B", seq=seq, src=2, dst=1))
        e0.notify_enqueue()
        e2.notify_enqueue()
        engine.run(until=seconds(3))
        total_attempts = e0.tx_attempts + e2.tx_attempts
        total_successes = e0.tx_successes + e2.tx_successes
        # With carrier sensing, the channel splits cleanly.
        assert total_successes > 0.9 * total_attempts

    def test_cw_growth_under_hidden_collisions(self):
        engine, channel, macs = self.chain4()
        q0, q2 = FifoQueue(capacity=500), FifoQueue(capacity=500)
        e0 = macs[0].add_entity("q0", q0, successor=1)
        e2 = macs[2].add_entity("q2", q2, successor=1)
        peak_cw = [16]
        original = e0._draw_backoff

        def spy():
            peak_cw[0] = max(peak_cw[0], e0.cw)
            original()

        e0._draw_backoff = spy
        for seq in range(100):
            q0.push(Packet(flow_id="A", seq=seq, src=0, dst=1))
            q2.push(Packet(flow_id="B", seq=seq, src=2, dst=1))
        e0.notify_enqueue()
        e2.notify_enqueue()
        engine.run(until=seconds(2))
        assert peak_cw[0] >= 64  # exponential backoff engaged


class TestExplicitConnectivityMac:
    def test_sense_only_interference_is_captured_through(self):
        """A decodable frame survives concurrent sense-only energy —
        the capture rule on explicit maps."""
        conn = ExplicitConnectivity(
            ["a", "b", "far"],
            rx_edges=[("a", "b")],
            sense_edges=[("far", "b")],
        )
        engine = Engine()
        channel = Channel(engine, conn, RngRegistry(0))
        received = []

        class Sink:
            def on_medium_busy(self, now):
                pass

            def on_medium_idle(self, now):
                pass

            def on_frame_received(self, frame, now):
                received.append(frame)

            def on_frame_overheard(self, frame, now):
                pass

            def on_frame_error(self, now):
                pass

        for node in ("a", "b", "far"):
            channel.attach(node, Sink())

        class F:
            def __init__(self, dst):
                self.dst = dst

        channel.transmit("a", F("b"), 100)
        channel.transmit("far", F("nowhere"), 100)
        engine.run()
        assert len(received) == 1


class TestMediumEdgeGate:
    """Busy/idle edges reach a Dcf only while one of its entities backs off."""

    @staticmethod
    def backoffs(mac):
        return sum(entity.state is TxEntity.BACKOFF for entity in mac.entities)

    def test_dcf_with_no_entity_in_backoff_gets_no_medium_edge(self):
        from repro.topology.linear import linear_chain

        # Above capacity the source backs off most of the time, the
        # relays fall idle between packets, and the sink (node 3) never
        # has an entity at all.
        network = linear_chain(hops=3, seed=2, rate_bps=500_000.0)
        edges = {"busy": 0, "idle": 0}
        idle_macs = {"busy": 0, "idle": 0}
        resuming = set()
        for stack in network.nodes.values():
            mac = stack.mac

            def spy(kind, original, _mac=mac):
                def upcall(now):
                    # The MAC's own resume after an exchange is not an upcall.
                    if _mac not in resuming:
                        edges[kind] += 1
                        if not self.backoffs(_mac):
                            idle_macs[kind] += 1
                    original(now)

                return upcall

            def resume_all(_mac=mac, _original=mac._resume_all):
                resuming.add(_mac)
                try:
                    _original()
                finally:
                    resuming.discard(_mac)

            mac.on_medium_busy = spy("busy", mac.on_medium_busy)
            mac.on_medium_idle = spy("idle", mac.on_medium_idle)
            mac._resume_all = resume_all
        network.run(until_us=seconds(5))
        assert network.flow("F1").delivered > 50
        assert edges["busy"] > 0 and edges["idle"] > 0
        assert idle_macs == {"busy": 0, "idle": 0}

    def test_backoff_count_follows_entity_states(self):
        """The count the channel gates on equals the entities in BACKOFF
        after every event: retries, drops and virtual collisions included."""
        from repro.core import attach_ezflow
        from repro.topology.testbed import testbed_network

        network = testbed_network(seed=2)
        attach_ezflow(network.nodes)
        network.start_sources()
        engine = network.engine
        macs = [stack.mac for stack in network.nodes.values()]
        while engine.now < seconds(3) and engine.step():
            for mac in macs:
                assert mac._port.contending == self.backoffs(mac), mac.node_id
        assert sum(entity.virtual_collisions for mac in macs for entity in mac.entities)

    def test_listeners_that_are_not_a_dcf_get_every_edge(self):
        conn = ExplicitConnectivity(
            ["a", "b", "far"],
            rx_edges=[("a", "b")],
            sense_edges=[("far", "b")],
        )
        engine = Engine()
        channel = Channel(engine, conn, RngRegistry(0))
        edges = []

        class Stub:
            def __init__(self, node):
                self.node = node

            def on_medium_busy(self, now):
                edges.append((self.node, "busy", now))

            def on_medium_idle(self, now):
                edges.append((self.node, "idle", now))

            def on_frame_received(self, frame, now):
                pass

            def on_frame_overheard(self, frame, now):
                pass

            def on_frame_error(self, now):
                pass

        for node in ("a", "b", "far"):
            channel.attach(node, Stub(node))

        class F:
            def __init__(self, dst):
                self.dst = dst

        channel.transmit("a", F("b"), 100)
        engine.schedule(50, channel.transmit, "far", F("nowhere"), 100)
        engine.run()
        channel.transmit("b", F("a"), 40)
        engine.run()
        # Every edge at every node, its own frame ends included.
        assert sorted(edges, key=lambda e: (e[2], e[0], e[1])) == [
            ("b", "busy", 0),
            ("a", "idle", 100),
            ("a", "busy", 150),
            ("b", "idle", 150),
            ("far", "busy", 150),
            ("far", "idle", 150),
            ("a", "idle", 190),
            ("b", "idle", 190),
            ("far", "idle", 190),
        ]

"""Tests for flows and the per-node stack."""

import pytest

from repro.mac.dcf import DcfConfig
from repro.net.flow import Flow
from repro.net.node import NodeStack
from repro.net.packet import Packet
from repro.net.routing import StaticRouting
from repro.phy.channel import Channel
from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import seconds


class TestFlow:
    def test_active_window(self):
        flow = Flow("F", 0, 1, start_us=100, stop_us=200)
        assert not flow.active_at(99)
        assert flow.active_at(100)
        assert flow.active_at(199)
        assert not flow.active_at(200)

    def test_active_without_stop(self):
        flow = Flow("F", 0, 1, start_us=100)
        assert flow.active_at(10**12)

    def test_note_delivered_records(self):
        flow = Flow("F", 0, 1)
        p = Packet(flow_id="F", seq=1, src=0, dst=1, created_at=0)
        flow.note_delivered(p, seconds(2))
        assert flow.delivered == 1
        assert p.delivered_at == seconds(2)
        assert flow.mean_delay_s(0, seconds(10)) == pytest.approx(2.0)

    def test_wrong_flow_packet_rejected(self):
        flow = Flow("F", 0, 1)
        p = Packet(flow_id="OTHER", seq=1, src=0, dst=1)
        with pytest.raises(ValueError):
            flow.note_delivered(p, 0)

    def test_throughput_bps(self):
        flow = Flow("F", 0, 1)
        for i in range(10):
            p = Packet(flow_id="F", seq=i, src=0, dst=1, size_bytes=1000)
            flow.note_delivered(p, seconds(i * 0.1))
        # 10 packets * 8000 bits in 1 s window
        assert flow.throughput_bps(0, seconds(1)) == pytest.approx(80_000.0)

    def test_throughput_series_kbps(self):
        flow = Flow("F", 0, 1)
        for i in range(4):
            p = Packet(flow_id="F", seq=i, src=0, dst=1, size_bytes=1000)
            flow.note_delivered(p, seconds(i))
        series = flow.throughput_series_kbps(0, seconds(4), bin_s=2.0)
        assert len(series) == 2
        assert series[0][1] == pytest.approx(8.0)

    def test_path_delay_series(self):
        flow = Flow("F", 0, 1)
        p = Packet(flow_id="F", seq=1, src=0, dst=1, created_at=0)
        p.first_tx_at = seconds(1)
        flow.note_delivered(p, seconds(3))
        series = flow.path_delay_series_s(0, seconds(10))
        assert series == [(3.0, 2.0)]

    def test_empty_window_zero(self):
        flow = Flow("F", 0, 1)
        assert flow.throughput_bps(0, seconds(1)) == 0.0
        assert flow.mean_delay_s(0, seconds(1)) == 0.0


def build_chain(count=4, seed=0, spacing=200.0):
    engine = Engine()
    positions = {i: (i * spacing, 0.0) for i in range(count)}
    conn = GeometricConnectivity(positions, RangeModel())
    rng = RngRegistry(seed)
    channel = Channel(engine, conn, rng)
    routing = StaticRouting()
    nodes = {
        i: NodeStack(engine, channel, routing, i, DcfConfig(), rng)
        for i in range(count)
    }
    routing.install_path(list(range(count)))
    return engine, nodes, routing


class TestNodeStack:
    def test_send_enqueues_own_queue(self):
        engine, nodes, routing = build_chain()
        p = Packet(flow_id="F", seq=1, src=0, dst=3)
        assert nodes[0].send(p)
        queue, _ = nodes[0].queue_for("own", 1)
        assert len(queue) == 1

    def test_multihop_delivery(self):
        engine, nodes, routing = build_chain()
        flow = Flow("F", 0, 3)
        nodes[3].register_flow(flow)
        for seq in range(3):
            nodes[0].send(Packet(flow_id="F", seq=seq, src=0, dst=3))
        engine.run(until=seconds(5))
        assert flow.delivered == 3

    def test_hops_counted(self):
        engine, nodes, routing = build_chain()
        delivered = []
        nodes[3].delivered_callbacks.append(lambda p, now: delivered.append(p))
        flow = Flow("F", 0, 3)
        nodes[3].register_flow(flow)
        nodes[0].send(Packet(flow_id="F", seq=1, src=0, dst=3))
        engine.run(until=seconds(5))
        assert delivered[0].hops == 3

    def test_first_tx_recorded_at_source_only(self):
        engine, nodes, routing = build_chain()
        flow = Flow("F", 0, 3)
        nodes[3].register_flow(flow)
        p = Packet(flow_id="F", seq=1, src=0, dst=3, created_at=0)
        nodes[0].send(p)
        engine.run(until=seconds(5))
        assert p.first_tx_at is not None
        assert p.path_delay_us < p.delay_us or p.delay_us == p.path_delay_us

    def test_own_and_forward_queues_separate(self):
        engine, nodes, routing = build_chain()
        own, _ = nodes[1].queue_for("own", 2)
        fwd, _ = nodes[1].queue_for("fwd", 2)
        assert own is not fwd

    def test_source_drop_when_queue_full(self):
        engine, nodes, routing = build_chain()
        for seq in range(60):
            nodes[0].send(Packet(flow_id="F", seq=seq, src=0, dst=3))
        assert nodes[0].source_drops == 10

    def test_total_buffer_occupancy(self):
        engine, nodes, routing = build_chain()
        for seq in range(5):
            nodes[0].send(Packet(flow_id="F", seq=seq, src=0, dst=3))
        assert nodes[0].total_buffer_occupancy() == 5
        assert nodes[0].forwarding_occupancy() == 0

    def test_sniffer_callback_fires_on_overheard_data(self):
        engine, nodes, routing = build_chain()
        flow = Flow("F", 0, 3)
        nodes[3].register_flow(flow)
        sniffed = []
        nodes[0].sniffer_callbacks.append(lambda frame, now: sniffed.append(frame))
        nodes[0].send(Packet(flow_id="F", seq=1, src=0, dst=3))
        engine.run(until=seconds(5))
        # node 0 overhears node 1 forwarding to node 2
        assert any(f.src == 1 and f.dst == 2 for f in sniffed)

    def test_sent_callback_fires_on_mac_success(self):
        engine, nodes, routing = build_chain()
        flow = Flow("F", 0, 3)
        nodes[3].register_flow(flow)
        sent = []
        nodes[0].sent_callbacks.append(
            lambda entity, pkt, frame, now: sent.append((entity.successor, pkt.seq))
        )
        nodes[0].send(Packet(flow_id="F", seq=9, src=0, dst=3))
        engine.run(until=seconds(5))
        assert sent == [(1, 9)]

"""Tests for traffic sources."""

import pytest

from repro.net.flow import Flow
from repro.sim.units import seconds
from repro.traffic.sources import CbrSource, SaturatedSource
from repro.topology.builders import build_network, build_chain_positions
from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel


def two_node_network(seed=0):
    conn = GeometricConnectivity(build_chain_positions(2), RangeModel())
    network = build_network(conn, seed=seed)
    network.routing.install_path([0, 1])
    flow = Flow("F", 0, 1)
    network.flows["F"] = flow
    network.nodes[1].register_flow(flow)
    return network, flow


class TestCbrSource:
    def test_interval_from_rate(self):
        network, flow = two_node_network()
        source = CbrSource(network.engine, network.nodes[0], flow, 2_000_000.0)
        # 8000 bits at 2 Mb/s = 4 ms
        assert source.interval_us == 4000

    def test_generates_at_rate(self):
        network, flow = two_node_network()
        source = CbrSource(network.engine, network.nodes[0], flow, 400_000.0)
        source.start()
        network.engine.run(until=seconds(1))
        # 400 kb/s / 8 kb per packet = 50 pkt/s
        assert flow.generated == pytest.approx(50, abs=2)

    def test_respects_start_time(self):
        network, flow = two_node_network()
        flow.start_us = seconds(0.5)
        source = CbrSource(network.engine, network.nodes[0], flow, 400_000.0)
        source.start()
        network.engine.run(until=seconds(1))
        assert flow.generated == pytest.approx(25, abs=2)

    def test_stops_at_stop_time(self):
        network, flow = two_node_network()
        flow.stop_us = seconds(0.5)
        source = CbrSource(network.engine, network.nodes[0], flow, 400_000.0)
        source.start()
        network.engine.run(until=seconds(2))
        assert flow.generated == pytest.approx(25, abs=2)

    def test_positive_rate_required(self):
        network, flow = two_node_network()
        with pytest.raises(ValueError):
            CbrSource(network.engine, network.nodes[0], flow, 0.0)

    def test_wrong_node_rejected(self):
        network, flow = two_node_network()
        with pytest.raises(ValueError):
            CbrSource(network.engine, network.nodes[1], flow, 1000.0)

    def test_double_start_rejected(self):
        network, flow = two_node_network()
        source = CbrSource(network.engine, network.nodes[0], flow, 1000.0)
        source.start()
        with pytest.raises(RuntimeError):
            source.start()


class TestSaturatedSource:
    def test_keeps_source_queue_full(self):
        network, flow = two_node_network()
        source = SaturatedSource(network.engine, network.nodes[0], flow)
        source.start()
        network.engine.run(until=seconds(1))
        queue, _ = network.nodes[0].queue_for("own", 1)
        assert queue.is_full()

    def test_delivers_continuously(self):
        network, flow = two_node_network()
        source = SaturatedSource(network.engine, network.nodes[0], flow)
        source.start()
        network.engine.run(until=seconds(2))
        # saturated 1-hop link at ~0.9 Mb/s delivers >100 packets in 2 s
        assert flow.delivered > 100

    def test_respects_stop(self):
        network, flow = two_node_network()
        flow.stop_us = seconds(0.2)
        source = SaturatedSource(network.engine, network.nodes[0], flow)
        source.start()
        network.engine.run(until=seconds(2))
        generated_at_stop = flow.generated
        network.engine.run(until=seconds(3))
        assert flow.generated == generated_at_stop


class TestFullQueueTicks:
    def test_full_source_queue_refuses_without_building_a_packet(self, monkeypatch):
        """A tick that finds its source queue full builds no Packet, yet
        counts the refusal exactly as a built-and-dropped packet did."""
        from repro.core import attach_ezflow
        from repro.net.packet import Packet
        from repro.topology.testbed import testbed_network

        built = []
        original = Packet.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Packet, "__init__", counting_init)
        network = testbed_network(seed=3)
        attach_ezflow(network.nodes)
        network.run(until_us=seconds(10))

        own = {
            queue.name: queue
            for node in network.nodes.values()
            for (kind, _), (queue, _) in node.queues().items()
            if kind == "own"
        }
        assert len(built) == sum(queue.enqueued for queue in own.values())
        # Pinned from the code that built and dropped every refused packet.
        assert {f: network.flow(f).generated for f in ("F1", "F2")} == {
            "F1": 2501,
            "F2": 2501,
        }
        assert {n: network.nodes[n].source_drops for n in ("N0", "N0p")} == {
            "N0": 2296,
            "N0p": 1577,
        }
        dropped = {
            queue.name: queue.dropped
            for node in network.nodes.values()
            for queue, _ in node.queues().values()
        }
        assert dropped == {
            "nodeN0.own.toN1": 2296,
            "nodeN0p.own.toN4": 1577,
            "nodeN1.fwd.toN2": 0,
            "nodeN2.fwd.toN3": 0,
            "nodeN3.fwd.toN4": 0,
            "nodeN4.fwd.toN5": 779,
            "nodeN5.fwd.toN6": 0,
            "nodeN6.fwd.toN7": 0,
        }

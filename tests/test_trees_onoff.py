"""Tests for tree backhauls, on/off traffic and the load sweep."""

import pytest

from repro.core import attach_ezflow
from repro.net.flow import Flow
from repro.phy.propagation import distance
from repro.sim.units import seconds
from repro.topology.builders import build_chain_positions, build_network
from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel
from repro.topology.trees import tree_backhaul, tree_positions
from repro.traffic.onoff import OnOffSource


class TestTreePositions:
    def test_node_count_regular_tree(self):
        positions, children = tree_positions(depth=3, fanout=2)
        # 1 + 2 + 4 + 8 = 15 nodes
        assert len(positions) == 15

    def test_children_structure(self):
        positions, children = tree_positions(depth=2, fanout=3)
        assert len(children[0]) == 3
        for child in children[0]:
            assert len(children[child]) == 3

    def test_parent_child_within_reception(self):
        positions, children = tree_positions(depth=3, fanout=2)
        for parent, kids in children.items():
            for child in kids:
                # each level adds one spacing of radius; the angular
                # offset keeps the hop length bounded
                assert distance(positions[parent], positions[child]) <= 260.0

    def test_validation(self):
        with pytest.raises(ValueError):
            tree_positions(depth=0, fanout=2)
        with pytest.raises(ValueError):
            tree_positions(depth=2, fanout=0)


class TestTreeBackhaul:
    def test_one_flow_per_leaf(self):
        network = tree_backhaul(depth=2, fanout=2, seed=1)
        leaves = [flow.dst for flow in network.flows.values()]
        assert len(leaves) == len(set(leaves)) == 4
        assert all(not network.routing.successors_of(leaf) for leaf in leaves)

    def test_root_has_one_queue_per_child(self):
        network = tree_backhaul(depth=2, fanout=2, seed=1)
        network.run(until_us=seconds(5))
        successors = network.routing.successors_of(0)
        assert len(successors) == 2

    def test_ezflow_adapts_per_successor_queue(self):
        network = tree_backhaul(depth=2, fanout=2, seed=1, rate_bps=600_000.0)
        controllers = attach_ezflow(network.nodes)
        network.run(until_us=seconds(60))
        root = controllers[0]
        # One CAA per child of the root, independently adjustable.
        assert len(root.caas) == 2

    def test_delivery_to_all_leaves(self):
        network = tree_backhaul(depth=2, fanout=2, seed=1, rate_bps=50_000.0)
        network.run(until_us=seconds(20))
        for flow in network.flows.values():
            assert flow.delivered > 0


class TestOnOffSource:
    def make_network(self, seed=1):
        conn = GeometricConnectivity(build_chain_positions(2), RangeModel())
        network = build_network(conn, seed=seed)
        network.routing.install_path([0, 1])
        flow = Flow("F", 0, 1)
        network.flows["F"] = flow
        network.nodes[1].register_flow(flow)
        return network, flow

    def test_generates_less_than_always_on(self):
        network, flow = self.make_network()
        source = OnOffSource(
            network.engine,
            network.nodes[0],
            flow,
            rate_bps=200_000.0,
            rng=network.rng,
            mean_on_s=1.0,
            mean_off_s=1.0,
        )
        source.start()
        network.engine.run(until=seconds(30))
        always_on = 200_000.0 * 30 / 8000  # packets if never off (750)
        assert 0 < flow.generated < always_on * 0.9
        # ~50% duty cycle -> roughly half the always-on volume
        assert always_on * 0.25 < flow.generated < always_on * 0.75

    def test_validation(self):
        network, flow = self.make_network()
        with pytest.raises(ValueError):
            OnOffSource(network.engine, network.nodes[0], flow, 0.0, network.rng)
        with pytest.raises(ValueError):
            OnOffSource(
                network.engine, network.nodes[0], flow, 1000.0, network.rng, mean_on_s=0
            )

    def test_first_burst_starts_on(self):
        """Regression: the source used to toggle OFF on its very first
        tick (phase end initialised to 0), staying silent for roughly
        mean_off_s despite the docs promising bursts start on."""
        network, flow = self.make_network()
        source = OnOffSource(
            network.engine,
            network.nodes[0],
            flow,
            rate_bps=200_000.0,
            rng=network.rng,
            mean_on_s=50.0,
            mean_off_s=10_000.0,  # any OFF start would silence the run
        )
        source.start()
        network.engine.run(until=seconds(2))
        assert source.is_on
        assert flow.generated > 0
        # At 200 kb/s and 1000-byte packets the first 2 s of an ON
        # period carry ~50 packets; allow generous slack for phase ends.
        assert flow.generated > 20

    def test_deterministic(self):
        counts = []
        for _ in range(2):
            network, flow = self.make_network(seed=5)
            source = OnOffSource(
                network.engine, network.nodes[0], flow, 100_000.0, network.rng
            )
            source.start()
            network.engine.run(until=seconds(20))
            counts.append(flow.generated)
        assert counts[0] == counts[1]


class TestLoadSweep:
    def test_smoke_two_loads(self):
        from repro.experiments import loadsweep

        result = loadsweep.run(
            duration_s=40.0, warmup_s=10.0, loads_kbps=(50.0, 2000.0), seed=3
        )
        table = result.find_table("Load sweep")
        assert len(table.rows) == 4
        rows = {
            (load, ez): goodput
            for load, ez, goodput, delay, buffer1 in table.rows
        }
        # Below capacity both deliver the offered load.
        assert rows[(50.0, "off")] == pytest.approx(50.0, rel=0.2)
        assert rows[(50.0, "on")] == pytest.approx(50.0, rel=0.2)

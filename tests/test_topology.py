"""Tests for topology builders: geometry invariants and wiring."""

import pytest

from repro.phy.connectivity import GeometricConnectivity
from repro.phy.propagation import RangeModel, distance
from repro.sim.units import seconds
from repro.topology.builders import build_chain_positions, build_network
from repro.topology.linear import linear_chain
from repro.topology.scenario1 import F1_PATH as S1_F1, F2_PATH as S1_F2, scenario1_network, scenario1_positions
from repro.topology.scenario2 import (
    F1_PATH as S2_F1,
    F2_PATH as S2_F2,
    F3_PATH as S2_F3,
    scenario2_network,
    scenario2_positions,
)
from repro.topology.testbed import (
    CHAIN,
    SRC2,
    testbed_connectivity as build_testbed_connectivity,
    testbed_network as build_testbed_network,
)
from repro.traffic.sources import CbrSource, SaturatedSource


class TestChainPositions:
    def test_spacing(self):
        positions = build_chain_positions(4)
        assert distance(positions[0], positions[1]) == 200.0
        assert distance(positions[0], positions[3]) == 600.0

    def test_minimum_two_nodes(self):
        with pytest.raises(ValueError):
            build_chain_positions(1)


class TestAddFlow:
    def _chain(self):
        positions = build_chain_positions(3)
        return build_network(GeometricConnectivity(positions, RangeModel()), seed=1)

    def test_routes_registers_and_sources_a_cbr_flow(self):
        network = self._chain()
        flow = network.add_flow("A", [0, 1, 2], rate_bps=100_000, start_s=1.0, stop_s=2.0)
        assert network.flows == {"A": flow}
        assert (flow.src, flow.dst) == (0, 2)
        assert (flow.start_us, flow.stop_us) == (seconds(1), seconds(2))
        assert network.routing.path(0, 2) == [0, 1, 2]
        (source,) = network.sources
        assert isinstance(source, CbrSource) and source.flow is flow
        network.run(until_us=seconds(3))
        # One 1000-byte packet every 80 ms over [1 s, 2 s), all delivered
        # to the sink the flow is registered at.
        assert flow.generated == 13
        assert flow.delivered == 13

    def test_no_rate_means_saturated(self):
        network = self._chain()
        flow = network.add_flow("A", [2, 1, 0], rate_bps=None)
        assert flow.stop_us is None
        assert isinstance(network.sources[0], SaturatedSource)


class TestLinearChain:
    def test_node_count(self):
        network = linear_chain(hops=4)
        assert len(network.nodes) == 5

    def test_route_installed(self):
        network = linear_chain(hops=3)
        assert network.routing.path(0, 3) == [0, 1, 2, 3]

    def test_flow_registered_at_sink(self):
        network = linear_chain(hops=3)
        assert "F1" in network.flows
        assert network.flows["F1"].dst == 3

    def test_minimum_one_hop(self):
        with pytest.raises(ValueError):
            linear_chain(hops=0)

    def test_cbr_variant(self):
        network = linear_chain(hops=2, rate_bps=100_000)
        network.run(until_us=seconds(2))
        assert network.flows["F1"].generated > 0

    def test_canonical_regime_at_default_ranges(self):
        network = linear_chain(hops=4)
        conn = network.connectivity
        assert conn.can_receive(1, 0)
        assert not conn.can_receive(2, 0)
        assert conn.can_sense(2, 0)
        assert not conn.can_sense(3, 0)

    def test_one_hop_sensing_regime(self):
        network = linear_chain(hops=4, sense_range_m=350.0)
        conn = network.connectivity
        assert conn.can_sense(1, 0)
        assert not conn.can_sense(2, 0)


class TestTestbed:
    def test_nine_nodes(self):
        network = build_testbed_network()
        assert len(network.nodes) == 9

    def test_paths(self):
        network = build_testbed_network()
        assert network.routing.path("N0", "N7") == list(CHAIN)
        assert network.routing.path(SRC2, "N7") == [SRC2, "N4", "N5", "N6", "N7"]

    def test_f1_is_seven_hops(self):
        assert len(CHAIN) - 1 == 7

    def test_f2_is_four_hops(self):
        network = build_testbed_network()
        assert len(network.routing.path(SRC2, "N7")) - 1 == 4

    def test_flow_subset_selection(self):
        network = build_testbed_network(flows=("F1",))
        assert set(network.flows) == {"F1"}
        # An unselected flow is not routed either.
        assert not network.routing.has_route(SRC2, "N7")
        with pytest.raises(ValueError):
            build_testbed_network(flows=("F9",))

    def test_one_hop_sensing(self):
        conn = build_testbed_connectivity()
        assert conn.can_sense("N1", "N0")
        assert not conn.can_sense("N2", "N0")

    def test_src2_senses_junction_neighbourhood(self):
        conn = build_testbed_connectivity()
        assert conn.can_receive("N4", SRC2)
        assert conn.can_sense("N3", SRC2)
        assert conn.can_sense("N5", SRC2)
        assert not conn.can_receive("N3", SRC2)

    def test_hw_cap_default_1024(self):
        network = build_testbed_network()
        assert network.nodes["N0"].mac.config.hw_cw_cap == 1024

    def test_hw_cap_removable(self):
        network = build_testbed_network(hw_cw_cap=None)
        assert network.nodes["N0"].mac.config.hw_cw_cap is None

    def test_calibrated_losses_on_every_chain_link(self):
        network = build_testbed_network(flows=("F2",))
        links = set(zip(CHAIN, CHAIN[1:]))
        assert set(network.channel._loss) == links
        assert network.channel._loss[("N0", "N1")] == 0.0
        assert max(network.channel._loss.values()) == network.channel._loss[("N2", "N3")]


class TestScenario1:
    def test_both_flows_are_eight_hops(self):
        assert len(S1_F1) - 1 == 8
        assert len(S1_F2) - 1 == 8

    def test_flows_share_trunk(self):
        assert S1_F1[-5:] == S1_F2[-5:] == [4, 3, 2, 1, 0]

    def test_thirteen_nodes(self):
        network = scenario1_network()
        assert len(network.nodes) == 13

    def test_branch_chains_in_canonical_regime(self):
        positions = scenario1_positions()
        # consecutive F1-branch hops decode (distance <= 250)
        for a, b in zip(S1_F1, S1_F1[1:]):
            assert distance(positions[a], positions[b]) <= 250.0

    def test_opposite_branch_heads_sense_but_not_decode(self):
        positions = scenario1_positions()
        d = distance(positions[5], positions[6])
        assert 250.0 < d <= 550.0

    def test_flow_schedule(self):
        network = scenario1_network(time_scale=1.0)
        assert network.flows["F1"].start_us == seconds(5)
        assert network.flows["F2"].start_us == seconds(605)
        assert network.flows["F2"].stop_us == seconds(1804)

    def test_time_scale_compresses_schedule(self):
        network = scenario1_network(time_scale=0.1)
        assert network.flows["F2"].start_us == seconds(60.5)

    def test_positive_time_scale_required(self):
        with pytest.raises(ValueError):
            scenario1_network(time_scale=0)


class TestScenario2:
    def test_twenty_eight_nodes(self):
        network = scenario2_network()
        assert len(network.nodes) == 28

    def test_path_lengths(self):
        assert len(S2_F1) - 1 == 9
        assert len(S2_F2) - 1 == 8
        assert len(S2_F3) - 1 == 8

    def test_sources_mutually_hidden(self):
        positions = scenario2_positions()
        assert distance(positions[0], positions[10]) > 550.0
        assert distance(positions[0], positions[19]) > 550.0
        assert distance(positions[10], positions[19]) > 550.0

    def test_chains_decodable_hop_by_hop(self):
        positions = scenario2_positions()
        for path in (S2_F1, S2_F2, S2_F3):
            for a, b in zip(path, path[1:]):
                assert distance(positions[a], positions[b]) <= 250.0

    def test_no_cross_chain_reception(self):
        positions = scenario2_positions()
        for a in S2_F2:
            for b in S2_F1:
                assert distance(positions[a], positions[b]) > 250.0

    def test_f2_tail_couples_with_f1_head(self):
        positions = scenario2_positions()
        tail = S2_F2[-1]
        assert distance(positions[tail], positions[0]) <= 550.0

    def test_f3_tail_couples_with_f1_tail(self):
        positions = scenario2_positions()
        tail = S2_F3[-1]
        assert distance(positions[tail], positions[9]) <= 550.0

    def test_f2_source_contends_with_two_nodes_only(self):
        network = scenario2_network()
        sensed = network.connectivity.sensors_of(10)
        assert sensed == frozenset({11, 12})

    def test_flow_schedule(self):
        network = scenario2_network(time_scale=1.0)
        assert network.flows["F3"].start_us == seconds(1805)
        assert network.flows["F3"].stop_us == seconds(3605)
        assert network.flows["F1"].stop_us == seconds(4500)

"""Tests for connectivity maps and relative power levels."""

import pytest

from repro.phy.connectivity import (
    ExplicitConnectivity,
    GeometricConnectivity,
    SENSE_ONLY_POWER,
)
from repro.phy.propagation import RangeModel


def chain_positions(count, spacing=200.0):
    return {i: (i * spacing, 0.0) for i in range(count)}


class TestGeometricConnectivity:
    def test_adjacent_nodes_receive(self):
        conn = GeometricConnectivity(chain_positions(3), RangeModel())
        assert conn.can_receive(1, 0)
        assert conn.can_receive(0, 1)

    def test_two_hop_nodes_sense_only(self):
        conn = GeometricConnectivity(chain_positions(3), RangeModel())
        assert not conn.can_receive(2, 0)
        assert conn.can_sense(2, 0)

    def test_three_hop_nodes_hidden(self):
        conn = GeometricConnectivity(chain_positions(4), RangeModel())
        assert not conn.can_sense(3, 0)

    def test_one_hop_sensing_regime(self):
        conn = GeometricConnectivity(chain_positions(3), RangeModel(250.0, 350.0))
        assert conn.can_sense(1, 0)
        assert not conn.can_sense(2, 0)

    def test_receivers_of(self):
        conn = GeometricConnectivity(chain_positions(4), RangeModel())
        assert conn.receivers_of(1) == frozenset({0, 2})

    def test_sensors_of(self):
        conn = GeometricConnectivity(chain_positions(5), RangeModel())
        assert conn.sensors_of(2) == frozenset({0, 1, 3, 4})

    def test_rx_power_follows_inverse_fourth(self):
        conn = GeometricConnectivity(chain_positions(3), RangeModel())
        near = conn.rx_power(1, 0)   # 200 m
        far = conn.rx_power(2, 0)    # 400 m
        assert near / far == pytest.approx(16.0)

    def test_rx_power_zero_beyond_sensing(self):
        conn = GeometricConnectivity(chain_positions(4), RangeModel())
        assert conn.rx_power(3, 0) == 0.0

    def test_rx_power_zero_for_self(self):
        conn = GeometricConnectivity(chain_positions(2), RangeModel())
        assert conn.rx_power(0, 0) == 0.0

    def test_nodes(self):
        conn = GeometricConnectivity(chain_positions(3), RangeModel())
        assert conn.nodes() == frozenset({0, 1, 2})

    def test_nodes_is_built_once(self):
        # Channel.attach asks for the node set once per node; a copy per
        # call would make wiring O(n^2). Mutation moves and silences
        # nodes but never changes the id set.
        conn = GeometricConnectivity(chain_positions(4), RangeModel())
        first = conn.nodes()
        conn.move_node(1, (900.0, 0.0))
        conn.set_node_active(2, False)
        assert conn.nodes() is first
        assert first == frozenset({0, 1, 2, 3})


class TestExplicitConnectivity:
    def build(self):
        return ExplicitConnectivity(
            nodes=["a", "b", "c"],
            rx_edges=[("a", "b"), ("b", "c")],
            sense_edges=[("a", "c")],
        )

    def test_rx_edges_symmetric_by_default(self):
        conn = self.build()
        assert conn.can_receive("b", "a")
        assert conn.can_receive("a", "b")

    def test_rx_edge_implies_sense(self):
        conn = self.build()
        assert conn.can_sense("b", "a")

    def test_sense_only_edge(self):
        conn = self.build()
        assert conn.can_sense("c", "a")
        assert not conn.can_receive("c", "a")

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            ExplicitConnectivity(["a"], rx_edges=[("a", "zz")])

    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            ExplicitConnectivity(["a", "b"], rx_edges=[("a", "a")])

    def test_rx_power_levels(self):
        conn = self.build()
        assert conn.rx_power("b", "a") == 1.0
        assert conn.rx_power("c", "a") == SENSE_ONLY_POWER
        assert conn.rx_power("a", "a") == 0.0

    def test_disconnected_power_zero(self):
        conn = ExplicitConnectivity(["a", "b", "c"], rx_edges=[("a", "b")])
        assert conn.rx_power("c", "a") == 0.0

    def test_sense_only_power_below_capture(self):
        # A decodable frame must capture through sense-only interference.
        assert SENSE_ONLY_POWER * 10.0 < 1.0

"""Tests for the comparison mechanisms: penalty-q and DiffQ-style."""

import pytest

from repro.baselines.diffq import DIFFQ_HEADER_BYTES, DiffQConfig, attach_diffq
from repro.baselines.penalty import PenaltyStrategy, apply_penalty
from repro.sim.units import seconds
from repro.topology.linear import linear_chain


class TestPenaltyStrategy:
    def test_source_cw_from_q(self):
        strategy = PenaltyStrategy(q=1 / 8)
        assert strategy.source_cw() == 128

    def test_q_one_means_no_throttling(self):
        assert PenaltyStrategy(q=1.0).source_cw() == 16

    def test_q_range_validated(self):
        with pytest.raises(ValueError):
            PenaltyStrategy(q=0.0)
        with pytest.raises(ValueError):
            PenaltyStrategy(q=1.5)

    def test_source_cw_capped_at_maxcw(self):
        assert PenaltyStrategy(q=1e-9).source_cw() == 32768

    def test_apply_sets_entity_windows(self):
        network = linear_chain(hops=3, seed=1)
        network.run(until_us=seconds(2))  # create entities
        apply_penalty(network.nodes, sources=[0], q=1 / 8)
        source_entity = network.nodes[0].mac.entities[0]
        relay_entity = network.nodes[1].mac.entities[0]
        assert source_entity.cwmin == 128
        assert relay_entity.cwmin == 16

    def test_penalty_stabilizes_chain(self):
        """The static solution of [9]: q = 16/128 stabilizes 4 hops."""
        network = linear_chain(hops=4, seed=3)
        network.run(until_us=seconds(2))
        apply_penalty(network.nodes, sources=[0], q=16 / 128)
        network.run(until_us=seconds(90))
        assert network.nodes[1].total_buffer_occupancy() <= 25


class TestDiffQ:
    def test_config_maps_differential_to_class(self):
        config = DiffQConfig()
        assert config.cwmin_for(25) == 16
        assert config.cwmin_for(15) == 32
        assert config.cwmin_for(5) == 64
        assert config.cwmin_for(-10) == 128

    def test_attach_creates_controller_per_node(self):
        network = linear_chain(hops=3, seed=1)
        controllers = attach_diffq(network.nodes)
        assert set(controllers) == set(network.nodes)

    def test_piggybacked_backlog_read_by_neighbors(self):
        network = linear_chain(hops=3, seed=1)
        controllers = attach_diffq(network.nodes)
        network.run(until_us=seconds(10))
        # node 1 must have learned node 2's backlog via piggybacking
        assert 2 in controllers[1].neighbor_backlog

    def test_header_overhead_accounted(self):
        """DiffQ costs bytes on every data frame — the overhead EZ-flow
        avoids. The controller must account it per transmission attempt."""
        network = linear_chain(hops=3, seed=1)
        controllers = attach_diffq(network.nodes)
        network.run(until_us=seconds(10))
        attempts = network.nodes[0].mac.entities[0].tx_attempts
        assert controllers[0].header_overhead_bytes == attempts * DIFFQ_HEADER_BYTES
        assert controllers[0].header_overhead_bytes > 0

    def test_diffq_improves_chain_throughput(self):
        """Backpressure maintains queue *gradients* (buffers stay
        populated, unlike EZ-flow's near-empty equilibrium) but it must
        throttle the source relative to the relays and raise end-to-end
        throughput on the unstable 4-hop chain."""
        std = linear_chain(hops=4, seed=3)
        std.run(until_us=seconds(90))
        std_thr = std.flow("F1").throughput_bps(seconds(20), seconds(90))

        dq = linear_chain(hops=4, seed=3)
        attach_diffq(dq.nodes)
        dq.run(until_us=seconds(90))
        dq_thr = dq.flow("F1").throughput_bps(seconds(20), seconds(90))
        source_cw = dq.nodes[0].mac.entities[0].cwmin
        relay_cw = dq.nodes[1].mac.entities[0].cwmin
        assert source_cw > relay_cw
        assert dq_thr > 1.5 * std_thr

"""Tests for fairness, summary statistics and buffer sampling."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.fairness import jain_fairness_index
from repro.metrics.sampling import BufferSampler
from repro.metrics.stats import mean, percentile, stddev, summarize_flow
from repro.net.flow import Flow
from repro.net.packet import Packet
from repro.sim.units import seconds
from repro.topology.linear import linear_chain


class TestJainIndex:
    def test_equal_throughputs_perfectly_fair(self):
        assert jain_fairness_index([100, 100, 100]) == pytest.approx(1.0)

    def test_one_flow_gets_everything(self):
        assert jain_fairness_index([300, 0, 0]) == pytest.approx(1 / 3)

    def test_paper_example_range(self):
        # Parking-lot 802.11: 7 vs 143 kb/s -> FI about 0.55
        assert jain_fairness_index([7, 143]) == pytest.approx(0.55, abs=0.02)

    def test_two_equal_flows(self):
        assert jain_fairness_index([71, 110]) > 0.9

    def test_empty_is_one(self):
        assert jain_fairness_index([]) == 1.0

    def test_all_zero_is_one(self):
        assert jain_fairness_index([0, 0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness_index([-1, 1])

    @given(st.lists(st.floats(0.001, 1000), min_size=1, max_size=20))
    def test_property_bounds(self, throughputs):
        fi = jain_fairness_index(throughputs)
        assert 1 / len(throughputs) - 1e-9 <= fi <= 1.0 + 1e-9

    @given(st.floats(0.001, 1000), st.integers(1, 20))
    def test_property_equal_flows_are_fair(self, value, count):
        assert jain_fairness_index([value] * count) == pytest.approx(1.0)

    @given(st.lists(st.floats(0.001, 1000), min_size=1, max_size=20), st.floats(0.1, 10))
    def test_property_scale_invariant(self, throughputs, scale):
        fi1 = jain_fairness_index(throughputs)
        fi2 = jain_fairness_index([x * scale for x in throughputs])
        assert fi1 == pytest.approx(fi2)


class TestStats:
    def test_mean_empty(self):
        assert mean([]) == 0.0

    def test_mean(self):
        assert mean([1, 2, 3]) == 2.0

    def test_stddev_constant_zero(self):
        assert stddev([5, 5, 5]) == 0.0

    def test_stddev_single_sample_zero(self):
        assert stddev([5]) == 0.0

    def test_stddev_known_value(self):
        assert stddev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.0)

    def test_percentile_bounds(self):
        values = list(range(101))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 100
        assert percentile(values, 50) == 50

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 50) == 5.0

    def test_percentile_empty(self):
        assert percentile([], 50) == 0.0

    def test_percentile_validates(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_summarize_flow(self):
        flow = Flow("F", 0, 1)
        for i in range(20):
            p = Packet(flow_id="F", seq=i, src=0, dst=1, size_bytes=1000, created_at=0)
            flow.note_delivered(p, seconds(i * 0.5))
        stats = summarize_flow(flow, 0, seconds(10), bin_s=2.0)
        assert stats.mean_throughput_kbps == pytest.approx(16.0)
        assert stats.delivered == 20
        assert "F" in str(stats)


class TestBufferSampler:
    def test_samples_at_interval(self):
        network = linear_chain(hops=3, seed=1)
        sampler = BufferSampler(network.engine, network.nodes, [1, 2], interval_s=1.0)
        sampler.start()
        network.run(until_us=seconds(10))
        assert len(sampler.series_for(1)) == 11  # t = 0..10 inclusive

    def test_mean_occupancy_window(self):
        network = linear_chain(hops=3, seed=1)
        sampler = BufferSampler(network.engine, network.nodes, [1], interval_s=1.0)
        sampler.start()
        network.run(until_us=seconds(30))
        value = sampler.mean_occupancy(1, seconds(5), seconds(30))
        assert 0.0 <= value <= 50.0

    def test_double_start_rejected(self):
        network = linear_chain(hops=3, seed=1)
        sampler = BufferSampler(network.engine, network.nodes, [1])
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()

"""Tests for the rate-based EZ-flow variant (Section 7 extension)."""

import pytest

from repro.core.config import EZFlowConfig
from repro.core.ratecaa import (
    MAX_RATE_PPS,
    MIN_RATE_PPS,
    RateCaa,
    RateScheduler,
    attach_rate_ezflow,
)
from repro.mac.queues import FifoQueue
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.units import seconds
from repro.topology.linear import linear_chain

# Heavy end-to-end simulations: excluded from the CI fast lane.
pytestmark = pytest.mark.slow


def packet(seq=1):
    return Packet(flow_id="F", seq=seq, src=0, dst=9)


class TestRateScheduler:
    def make(self, rate=100.0, target=2):
        engine = Engine()
        mac_queue = FifoQueue(capacity=50)
        notified = []
        scheduler = RateScheduler(
            engine, mac_queue, lambda: notified.append(engine.now), rate, target
        )
        return engine, mac_queue, scheduler, notified

    def test_releases_at_rate(self):
        engine, mac_queue, scheduler, notified = self.make(rate=10.0, target=50)
        for seq in range(5):
            scheduler.offer(packet(seq))
        engine.run(until=seconds(1))
        # 10 pps -> 5 packets released within 0.5 s
        assert scheduler.released == 5
        assert len(mac_queue) == 5
        assert len(notified) == 5

    def test_respects_mac_backlog_target(self):
        engine, mac_queue, scheduler, notified = self.make(rate=1000.0, target=2)
        for seq in range(10):
            scheduler.offer(packet(seq))
        engine.run(until=seconds(1))
        # MAC queue never drains in this test, so only 2 enter it.
        assert len(mac_queue) == 2
        assert len(scheduler.upper) == 8

    def test_resumes_when_mac_drains(self):
        engine, mac_queue, scheduler, notified = self.make(rate=1000.0, target=2)
        for seq in range(4):
            scheduler.offer(packet(seq))
        engine.run(until=seconds(0.1))
        mac_queue.pop()
        mac_queue.pop()
        engine.run(until=seconds(0.2))
        assert scheduler.released == 4

    def test_upper_queue_capacity(self):
        engine, mac_queue, scheduler, notified = self.make()
        # No engine run: nothing is released, so exactly the upper
        # queue's capacity is accepted.
        accepted = [scheduler.offer(packet(seq)) for seq in range(150)]
        assert sum(accepted) == 100

    def test_rate_validated(self):
        engine, mac_queue, scheduler, notified = self.make()
        with pytest.raises(ValueError):
            scheduler.set_rate(0)

    def test_rate_change_takes_effect(self):
        engine, mac_queue, scheduler, notified = self.make(rate=1.0, target=50)
        for seq in range(20):
            scheduler.offer(packet(seq))
        scheduler.set_rate(100.0)
        # The already-armed first release still uses the old interval
        # (1 s); everything after drains at 100 pps.
        engine.run(until=seconds(1.5))
        assert scheduler.released == 20


class TestRateCaa:
    def make(self, window=1, initial=MAX_RATE_PPS):
        engine = Engine()
        scheduler = RateScheduler(engine, FifoQueue(), lambda: None)
        config = EZFlowConfig(sample_window=window)
        return RateCaa(config, scheduler, initial_rate_pps=initial), scheduler

    def test_overutilization_halves_rate(self):
        caa, scheduler = self.make()
        # Ladder position at max rate is 4 -> 4 consecutive windows.
        for _ in range(4):
            caa.on_sample(50)
        assert caa.rate_pps == MAX_RATE_PPS / 2
        assert scheduler.rate_pps == caa.rate_pps

    def test_underutilization_doubles_rate(self):
        caa, scheduler = self.make(initial=MAX_RATE_PPS / 4)
        # position = log2(256/64)+4 = 6 -> countdown threshold 15-6 = 9
        for _ in range(9):
            caa.on_sample(0)
        assert caa.rate_pps == MAX_RATE_PPS / 2

    def test_rate_bounded(self):
        caa, scheduler = self.make(initial=MIN_RATE_PPS)
        for _ in range(200):
            caa.on_sample(1000)
        assert caa.rate_pps == MIN_RATE_PPS
        caa2, _ = self.make(initial=MAX_RATE_PPS)
        for _ in range(200):
            caa2.on_sample(0)
        assert caa2.rate_pps == MAX_RATE_PPS

    def test_window_averaging(self):
        caa, scheduler = self.make(window=10)
        for i in range(9):
            assert caa.on_sample(100) is None
        assert caa.on_sample(100) == 100.0

    def test_mid_band_freezes(self):
        caa, scheduler = self.make()
        for _ in range(30):
            caa.on_sample(5.0)
        assert caa.rate_pps == MAX_RATE_PPS


class TestRateControllerEndToEnd:
    def test_stabilizes_4hop_chain(self):
        network = linear_chain(hops=4, seed=3, rate_bps=2_000_000)
        attach_rate_ezflow(network.nodes)
        network.run(until_us=seconds(300))
        for relay in (1, 2, 3):
            assert network.nodes[relay].total_buffer_occupancy() <= 20

    def test_throttles_the_source(self):
        network = linear_chain(hops=4, seed=3, rate_bps=2_000_000)
        controllers = attach_rate_ezflow(network.nodes)
        network.run(until_us=seconds(300))
        source_rate = controllers[0].current_rate(1)
        assert source_rate is not None and source_rate < MAX_RATE_PPS

    def test_improves_throughput_over_std(self):
        std = linear_chain(hops=4, seed=3, rate_bps=2_000_000)
        std.run(until_us=seconds(300))
        std_thr = std.flow("F1").throughput_bps(seconds(150), seconds(300))

        paced = linear_chain(hops=4, seed=3, rate_bps=2_000_000)
        attach_rate_ezflow(paced.nodes)
        paced.run(until_us=seconds(300))
        paced_thr = paced.flow("F1").throughput_bps(seconds(150), seconds(300))
        assert paced_thr > 1.5 * std_thr

    def test_current_rate_unknown_successor(self):
        network = linear_chain(hops=3, seed=1, rate_bps=2_000_000.0)
        controllers = attach_rate_ezflow(network.nodes)
        assert controllers[0].current_rate(99) is None

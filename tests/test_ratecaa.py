"""Tests for the rate-based EZ-flow variant (Section 7 extension)."""

import pytest

from repro.core.config import EZFlowConfig
from repro.core.ratecaa import (
    MAX_RATE_PPS,
    RateEZFlowController,
    RateScheduler,
    attach_rate_ezflow,
)
from repro.mac.queues import FifoQueue
from repro.net.packet import Packet
from repro.sim.engine import Engine
from repro.sim.units import seconds
from repro.topology.linear import linear_chain
from repro.topology.trees import tree_backhaul


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
    """The rate variant's CAA (Algorithm 1) drives the pacing rate."""

    def make(self):
        network = linear_chain(hops=2, seed=1)
        controller = RateEZFlowController(
            network.nodes[0], EZFlowConfig(sample_window=1)
        )
        network.nodes[0].own_queue(2)  # builds the pacer and CAA toward node 1
        return network, controller, controller.caas[1]

    def test_overutilization_halves_rate(self):
        network, controller, caa = self.make()
        assert controller.current_rate(1) == MAX_RATE_PPS == 256.0
        for _ in range(4):  # countup threshold at cw 16: log2(16)
            caa.on_sample(50)
        assert controller.current_rate(1) == MAX_RATE_PPS / 2
        # The actuator is the pacer: the MAC keeps 802.11's CWmin.
        assert network.nodes[0].mac.entities[0].cwmin == 16

    def test_underutilization_doubles_rate(self):
        network, controller, caa = self.make()
        for _ in range(4 + 5):  # cw 16 -> 32 -> 64
            caa.on_sample(50)
        assert controller.current_rate(1) == MAX_RATE_PPS / 4
        for _ in range(9):  # countdown threshold at cw 64: 15 - log2(64)
            caa.on_sample(0)
        assert controller.current_rate(1) == MAX_RATE_PPS / 2

    def test_rate_bounded(self):
        network, controller, caa = self.make()
        for _ in range(200):
            caa.on_sample(1000)
        assert caa.cw == EZFlowConfig().maxcw == 32768
        assert controller.current_rate(1) == 0.125
        for _ in range(200):
            caa.on_sample(0)
        assert controller.current_rate(1) == MAX_RATE_PPS


class TestRateActuator:
    def test_saturated_source_is_paced(self):
        network = linear_chain(hops=2, seed=1)  # the greedy access point
        controllers = attach_rate_ezflow(network.nodes)
        network.run(until_us=seconds(1))
        assert set(controllers[0].schedulers) == {1}
        assert controllers[0].schedulers[1].released > 0


# Heavy end-to-end simulations: excluded from the CI fast lane.
@pytest.mark.slow
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


def observe_rate_run(network, duration_s):
    """Attach the rate variant, run, and read back what it controls."""
    controllers = attach_rate_ezflow(network.nodes)
    network.run(until_us=seconds(duration_s))
    return {
        "flows": {fid: (f.generated, f.delivered) for fid, f in network.flows.items()},
        "source_drops": {n: s.source_drops for n, s in network.nodes.items() if s.source_drops},
        "occupancy": {n: s.total_buffer_occupancy() for n, s in network.nodes.items()},
        # (node, successor) -> (pacing rate in pkt/s, packets in the pacer)
        "paced": {
            (n, successor): (c.current_rate(successor), len(scheduler.upper))
            for n, c in controllers.items()
            for successor, scheduler in c.schedulers.items()
        },
        "events": network.engine.processed_events,
    }


#: Exact outcomes of two rate-variant runs: the unstable 4-hop chain
#: (seed 3, 2 Mb/s, 120 s) and a depth-2 gateway tree (seed 1, 600 kb/s
#: per leaf, 60 s). By the end the chain's source paces at 64 pkt/s and
#: the tree's root at 128 toward each child, so CAA decisions are
#: pinned, not just the pacer at its initial rate.
RATE_PINS = {
    "chain": (
        lambda: linear_chain(hops=4, seed=3, rate_bps=2_000_000.0),
        120.0,
        {
            "flows": {"F1": (30001, 1552)},
            "source_drops": {0: 19532},
            "occupancy": {0: 2, 1: 2, 2: 2, 3: 1, 4: 0},
            "paced": {
                (0, 1): (64.0, 100),
                (1, 2): (256.0, 99),
                (2, 3): (256.0, 8),
                (3, 4): (256.0, 0),
            },
            "events": 193843,
        },
    ),
    "tree": (
        lambda: tree_backhaul(depth=2, fanout=2, seed=1, rate_bps=600_000.0),
        60.0,
        {
            "flows": {
                "leaf3": (4501, 456),
                "leaf4": (4501, 310),
                "leaf5": (4501, 470),
                "leaf6": (4501, 358),
            },
            "source_drops": {0: 12605},
            "occupancy": {0: 4, 1: 2, 2: 4, 3: 0, 4: 0, 5: 0, 6: 0},
            "paced": {
                (0, 1): (128.0, 100),
                (0, 2): (128.0, 100),
                (1, 3): (256.0, 100),
                (1, 4): (256.0, 0),
                (2, 5): (256.0, 100),
                (2, 6): (256.0, 7),
            },
            "events": 180233,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(RATE_PINS))
def test_rate_variant_reproduces_pinned_run(name):
    build, duration_s, expected = RATE_PINS[name]
    assert observe_rate_run(build(), duration_s) == expected

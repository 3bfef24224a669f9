"""Cross-mechanism comparison benches.

* all four mechanisms (802.11, EZ-flow, static penalty-q, DiffQ-style)
  on the unstable 4-hop chain — the comparison the related-work section
  frames;
* the cw-based vs rate-based EZ-flow variants (Section 7 extension);
* EZ-flow on a gateway tree with genuine per-successor queues.
"""

from repro.baselines.diffq import attach_diffq
from repro.baselines.penalty import apply_penalty
from repro.core import attach_ezflow, attach_rate_ezflow
from repro.sim.units import seconds
from repro.topology.linear import linear_chain
from repro.topology.trees import tree_backhaul

DURATION_S = 300.0


def run_chain(mechanism: str, seed: int = 3):
    network = linear_chain(hops=4, seed=seed, rate_bps=2_000_000.0)
    if mechanism == "ezflow":
        attach_ezflow(network.nodes)
    elif mechanism == "rate-ezflow":
        attach_rate_ezflow(network.nodes)
    elif mechanism == "penalty":
        network.run(until_us=seconds(1))
        apply_penalty(network.nodes, sources=[0], q=16 / 128)
    elif mechanism == "diffq":
        attach_diffq(network.nodes)
    network.run(until_us=seconds(DURATION_S))
    throughput = network.flow("F1").throughput_bps(
        seconds(DURATION_S / 2), seconds(DURATION_S)
    )
    return throughput / 1000.0


def test_bench_mechanism_comparison(benchmark, once):
    def sweep():
        return {
            m: run_chain(m)
            for m in ("802.11", "ezflow", "penalty", "diffq", "rate-ezflow")
        }

    results = once(benchmark, sweep)
    baseline = results["802.11"]
    # Every flow-control mechanism beats plain 802.11 on the unstable chain.
    for mechanism in ("ezflow", "penalty", "diffq", "rate-ezflow"):
        assert results[mechanism] > 1.3 * baseline, (mechanism, results)
    # EZ-flow matches the hand-tuned static penalty without knowing q.
    assert results["ezflow"] > 0.85 * results["penalty"]
    # And matches DiffQ without its per-packet header overhead.
    assert results["ezflow"] > 0.85 * results["diffq"]


def test_bench_tree_backhaul(benchmark, once):
    """EZ-flow with several per-successor queues at the gateway."""

    def run(ezflow):
        network = tree_backhaul(depth=3, fanout=2, seed=2, rate_bps=120_000.0)
        controllers = attach_ezflow(network.nodes) if ezflow else {}
        network.run(until_us=seconds(200))
        start, end = seconds(100), seconds(200)
        total = sum(
            flow.throughput_bps(start, end) for flow in network.flows.values()
        )
        root_buffer = network.nodes[0].total_buffer_occupancy()
        root_caas = len(controllers[0].caas) if ezflow else 0
        return total / 1000.0, root_buffer, root_caas

    def both():
        return {"off": run(False), "on": run(True)}

    results = once(benchmark, both)
    total_off, buffer_off, _ = results["off"]
    total_on, buffer_on, caas = results["on"]
    # The gateway's aggregate demand saturates the root region; EZ-flow
    # must not lose aggregate goodput and must manage one CAA per child.
    assert caas == 2
    assert total_on > 0.8 * total_off

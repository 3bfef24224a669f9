"""Figure 1: buffer evolution of relay nodes, 3-hop vs 4-hop chains.

The paper's opening experiment: under standard IEEE 802.11 with a
greedy source, a 3-hop chain keeps relay buffers in check while a
4-hop chain's first relay builds up until saturation, with roughly
half the end-to-end throughput. We run both chains in the 1-hop
sensing regime (the testbed regime, see DESIGN.md) and report buffer
traces, mean occupancies and throughputs.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.metrics.sampling import BufferSampler
from repro.sim.units import seconds
from repro.topology.linear import linear_chain

#: Sensing radius giving the 1-hop sensing regime at 200 m spacing.
TESTBED_SENSE_M = 350.0

PAPER_NOTE = (
    "paper: 3-hop stable (low relay buffers), 4-hop first relay saturates; "
    "4-hop end-to-end throughput almost twice smaller than 3-hop"
)


def run(
    duration_s: float = 300.0,
    seed: int = 1,
    warmup_s: float = 30.0,
    sample_interval_s: float = 1.0,
) -> ExperimentResult:
    """Reproduce Figure 1 (scaled duration; paper runs ~1800 s)."""
    result = ExperimentResult(
        "fig1",
        "buffer evolution in 3- and 4-hop chains under standard 802.11",
        parameters={"duration_s": duration_s, "seed": seed},
    )
    summary = result.table(
        "Figure 1 summary",
        ["hops", "throughput_kbps", "relay", "mean_buffer", "final_buffer", "share_time_saturated"],
    )
    throughputs = {}
    for hops in (3, 4):
        network = linear_chain(
            hops=hops,
            seed=seed,
            sense_range_m=TESTBED_SENSE_M,
        )
        relays = list(range(1, hops))
        sampler = BufferSampler(network.engine, network.nodes, relays, sample_interval_s)
        sampler.start()
        network.run(until_us=seconds(duration_s))
        result.note_runtime(network.engine)
        start, end = seconds(warmup_s), seconds(duration_s)
        throughput = network.flow("F1").throughput_bps(start, end) / 1000.0
        throughputs[hops] = throughput
        for relay in relays:
            series = sampler.series_for(relay)
            window = series.window(start, end)
            saturated = sum(1 for v in window.values if v >= 45) / max(1, len(window))
            summary.add(
                hops,
                throughput,
                f"node{relay}",
                window.mean(),
                window.values[-1] if len(window) else 0.0,
                saturated,
            )
            result.series[f"{hops}hop.node{relay}.buffer"] = [
                (t / 1e6, v) for t, v in series
            ]
    ratio = throughputs[3] / throughputs[4] if throughputs[4] else float("inf")
    result.notes.append(PAPER_NOTE)
    result.notes.append(f"measured 3-hop/4-hop throughput ratio: {ratio:.2f}x")
    return result

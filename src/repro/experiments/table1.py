"""Table 1: per-link capacity of the testbed's 7-hop flow F1.

The paper measures each link l0..l6 in isolation over 1200 s and finds
heterogeneous capacities with l2 (N2 -> N3) the bottleneck at 408 kb/s.
We reproduce the measurement procedure: each link is saturated alone
(one-hop flow between its endpoints over the calibrated lossy channel)
and its throughput measured. Paper-vs-measured columns make the
calibration honest — the shape to check is the ordering and the clear
l2 minimum.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.sim.units import seconds
from repro.topology.builders import build_network
from repro.topology.testbed import (
    CHAIN,
    TESTBED_LINK_RATES_KBPS,
    testbed_connectivity,
    _erasure_for_rate,
)
from repro.metrics.stats import stddev


def run(
    duration_s: float = 120.0,
    seed: int = 1,
    warmup_s: float = 10.0,
) -> ExperimentResult:
    """Measure every link of F1 in isolation (paper: 1200 s each)."""
    result = ExperimentResult(
        "table1",
        "isolated capacity of testbed links l0..l6",
        parameters={"duration_s": duration_s, "seed": seed},
    )
    table = result.table(
        "Table 1: link capacities",
        ["link", "paper_kbps", "measured_kbps", "measured_sd_kbps"],
    )
    best = max(TESTBED_LINK_RATES_KBPS)
    for i, paper_rate in enumerate(TESTBED_LINK_RATES_KBPS):
        src, dst = CHAIN[i], CHAIN[i + 1]
        network = build_network(testbed_connectivity(), seed=seed + i)
        network.channel.set_link_loss(src, dst, _erasure_for_rate(paper_rate, best))
        flow = network.add_flow(f"l{i}", [src, dst])
        network.run(until_us=seconds(duration_s))
        result.note_runtime(network.engine)
        start, end = seconds(warmup_s), seconds(duration_s)
        measured = flow.throughput_bps(start, end) / 1000.0
        rates = [r for _, r in flow.throughput_series_kbps(start, end, bin_s=10.0)]
        table.add(f"l{i}", paper_rate, measured, stddev(rates))
    measured_col = table.column("measured_kbps")
    bottleneck = measured_col.index(min(measured_col))
    result.notes.append(
        f"paper bottleneck: l2 (408 kb/s); measured bottleneck: l{bottleneck} "
        f"({min(measured_col):.0f} kb/s)"
    )
    return result

"""Figure 4: testbed buffer evolution of F1 and F2 relays, ± EZ-flow.

Two single-flow runs on the 9-node testbed (F1 alone: 7 hops over the
lossy chain with the l2 bottleneck; F2 alone: the 4-hop tail flow) with
standard 802.11 and with EZ-flow. The paper's caption numbers: without
EZ-flow the mean buffers are 41.6 (N1), 43.1 (N2) and 43.7 (N4); with
EZ-flow 29.5 (N1, blocked by the 2^10 hardware cw cap), 5.2 (N2) and
5.3 (N4), everything else negligible.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.testbedlab import testbed_simulation
from repro.sim.units import seconds

#: Paper caption reference, (flow, node) -> mean buffer.
PAPER_MEANS = {
    ("F1", "N1", False): 41.6,
    ("F1", "N2", False): 43.1,
    ("F2", "N4", False): 43.7,
    ("F1", "N1", True): 29.5,
    ("F1", "N2", True): 5.2,
    ("F2", "N4", True): 5.3,
}

WATCHED = {"F1": ("N1", "N2", "N3"), "F2": ("N4", "N5", "N6")}


def run(
    duration_s: float = 400.0,
    seed: int = 4,
    warmup_s: float = 60.0,
    sample_interval_s: float = 1.0,
) -> ExperimentResult:
    """Reproduce Figure 4 (scaled duration; paper runs 2000 s)."""
    result = ExperimentResult(
        "fig4",
        "testbed relay buffer evolution with and without EZ-flow",
        parameters={"duration_s": duration_s, "seed": seed},
    )
    table = result.table(
        "Figure 4: mean relay buffer occupancy",
        ["flow", "ezflow", "node", "paper_mean", "measured_mean", "final"],
    )
    for flow_id in ("F1", "F2"):
        for ezflow in (False, True):
            # The simulation is shared with Table 2 (same seed/duration):
            # testbedlab memoises it, so `all` runs it once.
            run_handle = testbed_simulation(
                seed, (flow_id,), duration_s, ezflow, sample_interval_s
            )
            result.note_runtime(run_handle.network.engine)
            sampler = run_handle.sampler
            start, end = seconds(warmup_s), seconds(duration_s)
            for node in WATCHED[flow_id]:
                series = sampler.series_for(node)
                window = series.window(start, end)
                paper = PAPER_MEANS.get((flow_id, node, ezflow), 0.0)
                table.add(
                    flow_id,
                    "on" if ezflow else "off",
                    node,
                    paper,
                    window.mean(),
                    window.values[-1] if len(window) else 0.0,
                )
                label = f"{flow_id}.{'ez' if ezflow else 'std'}.{node}.buffer"
                result.series[label] = [(t / 1e6, v) for t, v in series]
    result.notes.append(
        "shape check: saturated pre-bottleneck relays without EZ-flow; "
        "all buffers small with EZ-flow (N1 partially limited by hw cw cap)"
    )
    return result

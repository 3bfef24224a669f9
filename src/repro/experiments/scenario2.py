"""Scenario 2 (Figures 10, 11 and Table 3): three flows, hidden sources.

One harness runs the three-period schedule — (F1, F2), (F1, F2, F3),
F1 alone — with and without EZ-flow:

* Table 3: per-period mean throughput, throughput standard deviation
  and Jain fairness index;
* Figure 10: per-flow delay series;
* Figure 11: contention-window evolution at the first two nodes of each
  flow.

Paper reference (full 4500 s schedule): period 1 FI 0.75 -> 1.00;
period 2 aggregate 188.2 -> 304.6 kb/s (+62 %) and FI 0.64 -> 0.80 with
delays cut by an order of magnitude; period 3 F1 150 -> 180 kb/s.
"""

from __future__ import annotations

from repro.core import attach_ezflow
from repro.experiments.common import ExperimentResult
from repro.metrics.fairness import jain_fairness_index
from repro.metrics.stats import stddev
from repro.sim.units import seconds
from repro.topology.scenario2 import (
    F1_STOP_S,
    F3_START_S,
    F3_STOP_S,
    scenario2_network,
)

#: (period, flow, ezflow) -> paper mean throughput (kb/s), from Table 3.
PAPER_THROUGHPUT = {
    ("P1", "F1", False): 145.6,
    ("P1", "F2", False): 39.9,
    ("P2", "F1", False): 129.9,
    ("P2", "F2", False): 31.0,
    ("P2", "F3", False): 27.3,
    ("P3", "F1", False): 150.0,
    ("P1", "F1", True): 89.9,
    ("P1", "F2", True): 100.3,
    ("P2", "F1", True): 29.5,
    ("P2", "F2", True): 139.7,
    ("P2", "F3", True): 135.4,
    ("P3", "F1", True): 179.9,
}
PAPER_FI = {
    ("P1", False): 0.75,
    ("P2", False): 0.64,
    ("P1", True): 1.00,
    ("P2", True): 0.80,
}

PERIOD_FLOWS = {"P1": ("F1", "F2"), "P2": ("F1", "F2", "F3"), "P3": ("F1",)}


def run(
    time_scale: float = 0.1,
    seed: int = 6,
    settle_fraction: float = 0.35,
    bin_s: float = 10.0,
) -> ExperimentResult:
    """Run the scenario-2 schedule at ``time_scale`` and slice everything.

    Use ``time_scale=1.0`` for the paper's exact 4500 s schedule.
    """
    result = ExperimentResult(
        "scenario2",
        "three crossing flows with hidden sources (Figures 10-11, Table 3)",
        parameters={"time_scale": time_scale, "seed": seed},
    )
    periods = {
        "P1": (5.0, F3_START_S),
        "P2": (F3_START_S, F3_STOP_S),
        "P3": (F3_STOP_S, F1_STOP_S),
    }
    table = result.table(
        "Table 3",
        [
            "period",
            "ezflow",
            "flow",
            "paper_kbps",
            "measured_kbps",
            "measured_sd",
            "jain_fi",
            "path_delay_s",
        ],
    )
    cw_table = result.table(
        "Figure 11: final contention windows (first two nodes per flow)",
        ["ezflow", "node", "successor", "cw"],
    )
    for ezflow in (False, True):
        network = scenario2_network(seed=seed, time_scale=time_scale)
        controllers = attach_ezflow(network.nodes) if ezflow else {}
        network.run(until_us=seconds(F1_STOP_S * time_scale))
        result.note_runtime(network.engine)
        tag = "ez" if ezflow else "std"
        for period, (raw_start, raw_stop) in periods.items():
            start_s = raw_start * time_scale
            stop_s = raw_stop * time_scale
            settled = seconds(start_s + settle_fraction * (stop_s - start_s))
            stop = seconds(stop_s)
            throughputs = {}
            for flow_id in PERIOD_FLOWS[period]:
                flow = network.flow(flow_id)
                throughputs[flow_id] = flow.throughput_bps(settled, stop) / 1000.0
            fi = (
                jain_fairness_index(throughputs.values())
                if len(throughputs) > 1
                else None
            )
            for flow_id in PERIOD_FLOWS[period]:
                flow = network.flow(flow_id)
                rates = [
                    r
                    for _, r in flow.throughput_series_kbps(
                        settled, stop, bin_s=bin_s * max(time_scale, 0.05)
                    )
                ]
                table.add(
                    period,
                    "on" if ezflow else "off",
                    flow_id,
                    PAPER_THROUGHPUT.get((period, flow_id, ezflow), float("nan")),
                    throughputs[flow_id],
                    stddev(rates),
                    f"{fi:.2f}" if fi is not None else "-",
                    flow.mean_path_delay_s(settled, stop),
                )
        horizon = seconds(F1_STOP_S * time_scale)
        for flow_id in ("F1", "F2", "F3"):
            flow = network.flow(flow_id)
            result.series[f"fig10.{tag}.{flow_id}.delay_s"] = flow.delay_series_s(0, horizon)
            result.series[f"fig10.{tag}.{flow_id}.path_delay_s"] = (
                flow.path_delay_series_s(0, horizon)
            )
        if ezflow:
            for node_id in (0, 1, 10, 11, 19, 20):
                controller = controllers.get(node_id)
                if controller is None:
                    continue
                for successor, caa in controller.caas.items():
                    cw_table.add("on", node_id, successor, caa.cw)
                    series = controller.cw_history[successor]
                    if len(series):
                        result.series[f"fig11.cw.node{node_id}"] = [
                            (t / 1e6, v) for t, v in series
                        ]
    result.notes.append(
        "paper (full schedule): P2 aggregate 188.2 -> 304.6 kb/s (+62%), "
        "FI 0.64 -> 0.80, delays cut by an order of magnitude"
    )
    return result

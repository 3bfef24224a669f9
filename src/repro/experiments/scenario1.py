"""Scenario 1 (Figures 6, 7, 8): two 8-hop flows merging at a gateway.

One shared harness runs the three-period schedule — F1 alone, F1 + F2,
F1 alone again — with and without EZ-flow, then slices the run into the
figures:

* Figure 6: windowed throughput series of F1 and F2;
* Figure 7: per-packet end-to-end (and network-path) delay series;
* Figure 8: contention-window evolution at every adapting node.

Paper reference points (full 2504 s schedule): period 1 throughput
153.2 -> 183.9 kb/s (+20 %) and delay 4.1 s -> 0.2 s with EZ-flow;
period 2 aggregate 76.5 -> 82.1 kb/s with congestion resolved; relays
settle at cw 2^4 and the sources climb to 2^7..2^11.
"""

from __future__ import annotations

from repro.core import attach_ezflow
from repro.experiments.common import ExperimentResult
from repro.sim.units import seconds
from repro.topology.scenario1 import (
    F1_START_S,
    F1_STOP_S,
    F2_START_S,
    F2_STOP_S,
    scenario1_network,
)

PAPER = {
    "p1_thr_std": 153.2,
    "p1_thr_ez": 183.9,
    "p1_delay_std": 4.1,
    "p1_delay_ez": 0.2,
    "p2_agg_std": 76.5,
    "p2_agg_ez": 82.1,
}


def run(
    time_scale: float = 0.2,
    seed: int = 5,
    settle_fraction: float = 0.35,
    bin_s: float = 10.0,
) -> ExperimentResult:
    """Run the scenario-1 schedule at ``time_scale`` and slice all figures.

    ``settle_fraction`` discards the head of each period before
    computing period statistics (the paper's periods are long enough to
    average over the converged regime). Use ``time_scale=1.0`` for the
    paper's exact 2504 s schedule.
    """
    result = ExperimentResult(
        "scenario1",
        "two 8-hop flows merging at a gateway (Figures 6-8)",
        parameters={"time_scale": time_scale, "seed": seed},
    )
    periods = {
        "P1 (F1 alone)": (F1_START_S, F2_START_S),
        "P2 (F1+F2)": (F2_START_S, F2_STOP_S),
        "P3 (F1 alone)": (F2_STOP_S, F1_STOP_S),
    }
    table = result.table(
        "Scenario 1 period statistics",
        ["period", "ezflow", "flow", "thr_kbps", "delay_s", "path_delay_s"],
    )
    cw_table = result.table(
        "Figure 8: final contention windows",
        ["ezflow", "node", "successor", "cw"],
    )
    for ezflow in (False, True):
        network = scenario1_network(seed=seed, time_scale=time_scale)
        controllers = attach_ezflow(network.nodes) if ezflow else {}
        network.run(until_us=seconds(F1_STOP_S * time_scale))
        result.note_runtime(network.engine)
        tag = "ez" if ezflow else "std"
        for period, (raw_start, raw_stop) in periods.items():
            start_s = raw_start * time_scale
            stop_s = raw_stop * time_scale
            settled = seconds(start_s + settle_fraction * (stop_s - start_s))
            stop = seconds(stop_s)
            for flow_id in ("F1", "F2"):
                flow = network.flow(flow_id)
                if not (flow.start_us < stop and (flow.stop_us or stop) > settled):
                    continue
                table.add(
                    period,
                    "on" if ezflow else "off",
                    flow_id,
                    flow.throughput_bps(settled, stop) / 1000.0,
                    flow.mean_delay_s(settled, stop),
                    flow.mean_path_delay_s(settled, stop),
                )
        horizon = seconds(F1_STOP_S * time_scale)
        for flow_id in ("F1", "F2"):
            flow = network.flow(flow_id)
            result.series[f"fig6.{tag}.{flow_id}.throughput_kbps"] = (
                flow.throughput_series_kbps(0, horizon, bin_s=bin_s * max(time_scale, 0.05))
            )
            result.series[f"fig7.{tag}.{flow_id}.delay_s"] = flow.delay_series_s(0, horizon)
            result.series[f"fig7.{tag}.{flow_id}.path_delay_s"] = (
                flow.path_delay_series_s(0, horizon)
            )
        if ezflow:
            for node_id, controller in sorted(controllers.items(), key=lambda kv: str(kv[0])):
                for successor, caa in controller.caas.items():
                    cw_table.add("on", node_id, successor, caa.cw)
                    series = controller.cw_history[successor]
                    if len(series):
                        result.series[f"fig8.cw.node{node_id}"] = [
                            (t / 1e6, v) for t, v in series
                        ]
    result.notes.append(
        "paper (full schedule): P1 153->184 kb/s, delay 4.1->0.2 s; "
        "P2 aggregate 76.5->82.1 kb/s; relays at 2^4, sources 2^7..2^11"
    )
    return result

#!/usr/bin/env python3
"""Parking-lot fairness: EZ-flow cures starvation of the long flow.

Reproduces the paper's testbed parking lot (Section 4.3 / Table 2): a
7-hop flow F1 and a 4-hop flow F2 share the tail of the chain. Under
standard 802.11 the short flow's source is so aggressive that the long
flow starves (paper: 7 vs 143 kb/s, Jain index 0.55); EZ-flow makes
both sources less aggressive and restores fairness (71 vs 110, 0.96).

Run:  python examples/parking_lot_fairness.py [--duration 400]
"""

import argparse

from repro.core import attach_ezflow
from repro.metrics.fairness import jain_fairness_index
from repro.metrics.sampling import BufferSampler
from repro.sim.units import seconds
from repro.topology.testbed import testbed_network


def run(ezflow: bool, duration_s: float, seed: int):
    network = testbed_network(seed=seed, flows=("F1", "F2"))
    controllers = attach_ezflow(network.nodes) if ezflow else {}
    sampler = BufferSampler(network.engine, network.nodes, ["N1", "N2", "N4"], 1.0)
    sampler.start()
    network.run(until_us=seconds(duration_s))

    start, stop = seconds(duration_s * 0.25), seconds(duration_s)
    throughput = {
        f: network.flow(f).throughput_bps(start, stop) / 1000.0 for f in ("F1", "F2")
    }
    fairness = jain_fairness_index(throughput.values())
    buffers = {n: sampler.mean_occupancy(n, start, stop) for n in ("N1", "N2", "N4")}
    windows = {}
    for node_id in ("N0", "N0p"):
        controller = controllers.get(node_id)
        if controller:
            windows[node_id] = {s: c.cw for s, c in controller.caas.items()}
    return throughput, fairness, buffers, windows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=400.0)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args()

    print("== testbed parking lot: 7-hop F1 vs 4-hop F2 ==\n")
    for ezflow in (False, True):
        throughput, fairness, buffers, windows = run(ezflow, args.duration, args.seed)
        label = "EZ-flow" if ezflow else "IEEE 802.11"
        print(f"{label}:")
        print(f"  F1 {throughput['F1']:6.1f} kb/s | F2 {throughput['F2']:6.1f} kb/s"
              f" | Jain FI {fairness:.2f}")
        print(f"  mean relay buffers: { {n: round(v, 1) for n, v in buffers.items()} }")
        if windows:
            print(f"  source windows: {windows}")
        print()
    print(
        "Paper (Table 2): 802.11 starves F1 (7 vs 143 kb/s, FI 0.55);\n"
        "EZ-flow revives it (71 vs 110 kb/s, FI 0.96) by throttling both\n"
        "sources — no message was ever exchanged."
    )


if __name__ == "__main__":
    main()

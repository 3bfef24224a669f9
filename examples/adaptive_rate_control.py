#!/usr/bin/env python3
"""The Section-7 extension: rate-based EZ-flow vs the CWmin variant.

For deployments with more successors than MAC queues, the paper's
conclusion proposes keeping the BOE and letting the CAA pace a
routing-layer queue instead of changing ``CWmin``. This example runs
the unstable 4-hop chain under standard 802.11, the cw-based EZ-flow,
and the rate-based variant, and prints throughput, buffers and the
converged actuator values.

Run:  python examples/adaptive_rate_control.py [--duration 400]
"""

import argparse

from repro.core import attach_ezflow, attach_rate_ezflow
from repro.sim.units import seconds
from repro.topology.linear import linear_chain


def run(variant: str, duration_s: float, seed: int):
    network = linear_chain(hops=4, seed=seed, rate_bps=2_000_000.0)
    controllers = {}
    if variant == "cw":
        controllers = attach_ezflow(network.nodes)
    elif variant == "rate":
        controllers = attach_rate_ezflow(network.nodes)
    network.run(until_us=seconds(duration_s))

    half = seconds(duration_s / 2)
    throughput = network.flow("F1").throughput_bps(half, seconds(duration_s)) / 1000.0
    buffers = [network.nodes[n].total_buffer_occupancy() for n in (1, 2, 3)]
    actuators = {}
    for node_id, controller in controllers.items():
        for successor, caa in controller.caas.items():
            value = getattr(caa, "cw", None) or round(caa.rate_pps, 2)
            actuators[f"{node_id}->{successor}"] = value
    return throughput, buffers, actuators


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=400.0)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    print("== 4-hop chain, CBR 2 Mb/s, three control variants ==\n")
    for variant, label in (
        ("none", "standard 802.11"),
        ("cw", "EZ-flow (CWmin actuator)"),
        ("rate", "EZ-flow (pacing-rate actuator)"),
    ):
        throughput, buffers, actuators = run(variant, args.duration, args.seed)
        print(f"{label}:")
        print(f"  throughput    : {throughput:7.1f} kb/s")
        print(f"  relay buffers : {buffers}")
        if actuators:
            unit = "cw" if variant == "cw" else "pkt/s"
            print(f"  actuators ({unit}): {actuators}")
        print()
    print(
        "Both variants converge to the same stabilized operating point —\n"
        "a throttled source and near-empty relay buffers — because they\n"
        "share the BOE signal and the CAA decision logic; only the\n"
        "actuator differs (MAC contention window vs routing-layer pacing)."
    )


if __name__ == "__main__":
    main()

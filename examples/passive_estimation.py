#!/usr/bin/env python3
"""Inside the BOE: watch passive buffer estimation track ground truth.

Runs a 3-hop chain with a moderate CBR load and records, at every
overheard forwarding, the BOE's estimate of the successor's buffer next
to the simulator's ground truth — the estimate is exact under FIFO
(Section 3.2), with transient off-by-one around the in-flight frame.

Also demonstrates the degraded-sniffer mode: with 70% of overhearings
missed the estimator produces fewer samples but they remain correct.

Run:  python examples/passive_estimation.py
"""

import argparse

from repro.core import EZFlowController
from repro.sim.units import seconds
from repro.topology.linear import linear_chain


def trace_estimates(overhear_loss: float, duration_s: float, seed: int):
    network = linear_chain(hops=3, seed=seed, rate_bps=200_000.0)
    if overhear_loss:
        network.channel.set_overhear_loss(0, overhear_loss)
    controller = EZFlowController(network.nodes[0])
    samples = []

    network.run(until_us=seconds(1))
    boe = controller.boes[1]

    def record(estimate):
        truth = network.nodes[1].forwarding_occupancy()
        samples.append((network.engine.now / 1e6, estimate, truth))

    boe.sample_callbacks.append(record)
    network.run(until_us=seconds(duration_s))
    return samples, boe


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args()

    for loss in (0.0, 0.7):
        samples, boe = trace_estimates(loss, args.duration, args.seed)
        # At the overhear instant the forwarded frame is still at the
        # head of the successor's queue (it is dequeued when its MAC
        # ACK arrives, one SIFS later), so ground truth reads exactly
        # one higher than the number of packets *behind* it — which is
        # what the BOE estimates. est == truth - 1 is a perfect match.
        exact = sum(1 for _, est, truth in samples if est == max(0, truth - 1))
        print(f"== sniffer loss {loss:.0%} ==")
        print(f"  samples produced : {len(samples)}")
        print(f"  exact matches    : {exact} ({exact / max(1, len(samples)):.0%})"
              "  (est == packets queued behind the overheard frame)")
        print(f"  unmatched frames : {boe.overheard_unmatched}")
        print("  last ten (time, estimate, truth-at-overhear):")
        for t, est, truth in samples[-10:]:
            print(f"    {t:7.2f}s  est={est:2d}  truth={truth:2d}")
        print()
    print(
        "The estimate comes purely from overheard forwardings matched\n"
        "against remembered 16-bit checksums — no queue length was ever\n"
        "transmitted. Losing overhearings thins the samples; it does not\n"
        "corrupt them."
    )


if __name__ == "__main__":
    main()

"""Bidirectional (TCP-like) traffic over the chain, ± EZ-flow.

Section 2.3 claims EZ-flow, acting at the MAC layer, handles
bidirectional traffic the same way it handles one-way UDP. This harness
runs a sliding-window reliable transport (data forward, cumulative ACKs
backward over the same nodes) across the 4-hop chain for a sweep of
window sizes, with and without EZ-flow.

Expected shape: small windows are self-clocking (no difference); for
windows large enough to congest the relays, EZ-flow trims path delay
and retransmissions without costing goodput — and the unrestricted UDP
row (from the load sweep) shows the full EZ-flow gain for traffic that
has no end-to-end feedback at all, which is the paper's main argument
for acting below the transport layer.
"""

from __future__ import annotations

from typing import Iterable

from repro.core import attach_ezflow
from repro.experiments.common import ExperimentResult
from repro.net.flow import Flow
from repro.sim.units import seconds
from repro.topology.linear import linear_chain
from repro.transport import TransportConfig, WindowedSender, install_reverse_routes

DEFAULT_WINDOWS = (4, 16, 64)


def run(
    duration_s: float = 200.0,
    seed: int = 3,
    warmup_s: float = 60.0,
    hops: int = 4,
    windows: Iterable[int] = DEFAULT_WINDOWS,
) -> ExperimentResult:
    """Window sweep of the reliable transport on the K-hop chain."""
    result = ExperimentResult(
        "bidirectional",
        f"window transport over the {hops}-hop chain (TCP-like workload)",
        parameters={"duration_s": duration_s, "seed": seed, "hops": hops},
    )
    table = result.table(
        "Bidirectional transport",
        [
            "window",
            "ezflow",
            "goodput_kbps",
            "path_delay_s",
            "retransmissions",
            "acks",
        ],
    )
    start, end = seconds(warmup_s), seconds(duration_s)
    for window in windows:
        for ezflow in (False, True):
            network = linear_chain(hops=hops, seed=seed, rate_bps=1000)
            network.sources.clear()
            install_reverse_routes(network.routing, list(range(hops + 1)))
            flow = Flow("T1", src=0, dst=hops)
            network.flows["T1"] = flow
            network.nodes[hops].register_flow(flow)
            sender = WindowedSender(
                network.engine,
                network.nodes[0],
                network.nodes[hops],
                flow,
                TransportConfig(window=window),
            )
            if ezflow:
                attach_ezflow(network.nodes)
            sender.start()
            network.engine.run(until=seconds(duration_s))
            result.note_runtime(network.engine)
            table.add(
                window,
                "on" if ezflow else "off",
                flow.throughput_bps(start, end) / 1000.0,
                flow.mean_path_delay_s(start, end),
                sender.retransmissions,
                sender.acks_received,
            )
    result.notes.append(
        "paper claim (Section 2.3): a MAC-layer mechanism serves "
        "bidirectional and feedback-free traffic alike; window-limited "
        "transports self-clock, so gains concentrate at large windows "
        "and are largest for unrestricted UDP (see loadsweep)"
    )
    return result

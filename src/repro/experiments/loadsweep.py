"""Offered-load sweep: throughput and delay vs source rate, ± EZ-flow.

Not a numbered figure in the paper, but the natural extension of its
evaluation (and the standard way to present a flow-control mechanism):
sweep the CBR offered load on the 4-hop chain from well below to well
above capacity and record goodput, relay backlog and path delay. The
expected shape: below capacity the two MACs coincide; past the knee,
standard 802.11 collapses into the turbulent regime while EZ-flow holds
its peak goodput and keeps delay flat.
"""

from __future__ import annotations

from typing import Iterable

from repro.core import attach_ezflow
from repro.experiments.common import ExperimentResult
from repro.sim.units import seconds
from repro.topology.linear import linear_chain

DEFAULT_LOADS_KBPS = (50.0, 100.0, 150.0, 250.0, 500.0, 1000.0, 2000.0)


def run(
    duration_s: float = 200.0,
    seed: int = 3,
    warmup_s: float = 60.0,
    hops: int = 4,
    loads_kbps: Iterable[float] = DEFAULT_LOADS_KBPS,
) -> ExperimentResult:
    """Sweep offered load on the K-hop chain with and without EZ-flow."""
    result = ExperimentResult(
        "loadsweep",
        f"offered-load sweep on the {hops}-hop chain",
        parameters={"duration_s": duration_s, "seed": seed, "hops": hops},
    )
    table = result.table(
        "Load sweep",
        ["offered_kbps", "ezflow", "goodput_kbps", "path_delay_s", "relay1_buffer"],
    )
    start, end = seconds(warmup_s), seconds(duration_s)
    for load in loads_kbps:
        for ezflow in (False, True):
            network = linear_chain(hops=hops, seed=seed, rate_bps=load * 1000.0)
            if ezflow:
                attach_ezflow(network.nodes)
            network.run(until_us=seconds(duration_s))
            result.note_runtime(network.engine)
            flow = network.flow("F1")
            table.add(
                load,
                "on" if ezflow else "off",
                flow.throughput_bps(start, end) / 1000.0,
                flow.mean_path_delay_s(start, end),
                network.nodes[1].total_buffer_occupancy(),
            )
            series_key = f"goodput.{'ez' if ezflow else 'std'}"
            result.series.setdefault(series_key, []).append(
                (load, flow.throughput_bps(start, end) / 1000.0)
            )
    result.notes.append(
        "expected shape: identical below the knee; past it EZ-flow holds "
        "peak goodput and flat delay while standard 802.11 collapses"
    )
    return result

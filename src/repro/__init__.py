"""repro — a reproduction of EZ-Flow (Aziz et al., CoNEXT 2009).

EZ-flow is a distributed, message-passing-free flow-control mechanism
for IEEE 802.11 wireless mesh backhauls: each relay passively estimates
its successor's buffer occupancy by overhearing forwarded packets (BOE)
and adapts its own 802.11 ``CWmin`` accordingly (CAA).

Package layout:

* ``repro.sim`` — discrete-event engine;
* ``repro.phy`` — channel, propagation, collisions, overhearing;
* ``repro.mac`` — IEEE 802.11 DCF with per-queue contention;
* ``repro.net`` — packets, static routing, node stacks, flows;
* ``repro.traffic`` — CBR / saturated / on/off sources and workload mixes;
* ``repro.core`` — EZ-flow itself (BOE + CAA);
* ``repro.baselines`` — standard 802.11, penalty-q, DiffQ-style;
* ``repro.analysis`` — the Section 6 slotted model and stability proofs;
* ``repro.metrics`` — throughput/delay/fairness/buffer metrics;
* ``repro.topology`` — every evaluated topology, each paper layout a
  table of flows wired by ``Network.add_flow``;
* ``repro.experiments`` — one harness per paper table/figure.

Quickstart::

    from repro.topology import linear_chain
    from repro.core import attach_ezflow
    from repro.sim.units import seconds

    net = linear_chain(hops=4, seed=1)
    attach_ezflow(net.nodes)
    net.run(until_us=seconds(120))
    print(net.flow("F1").throughput_bps(0, seconds(120)) / 1000, "kb/s")
"""

__version__ = "1.0.0"

from repro.core import EZFlowConfig, EZFlowController, attach_ezflow
from repro.topology import (
    linear_chain,
    scenario1_network,
    scenario2_network,
    testbed_network,
)

__all__ = [
    "EZFlowConfig",
    "EZFlowController",
    "attach_ezflow",
    "linear_chain",
    "testbed_network",
    "scenario1_network",
    "scenario2_network",
    "__version__",
]

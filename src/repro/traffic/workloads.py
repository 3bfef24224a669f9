"""Workload layer: declarative traffic mixes over arbitrary flows.

Topology modules wire networks; this module populates them with
traffic. A :class:`WorkloadSpec` names a workload kind and its rate;
:func:`attach_workload` instantiates the matching sources (or windowed
transports) for a list of (source, destination) endpoints, registering
flows and reverse routes as needed. The recipe's other knobs are the
module constants below, which both engine tiers read. The
generated-topology experiment family (:mod:`repro.experiments.meshgen`)
drives all of its scenarios through this layer, so every workload kind
is exercised on every generator kind.

Kinds:

* ``cbr`` — constant bit rate at ``rate_bps`` (the paper's workload);
* ``onoff`` — exponential on/off bursts of CBR at ``rate_bps``
  (in-burst rate; the long-run average is ``rate_bps * on/(on+off)``);
* ``windowed`` — the go-back-N reliable transport, data forward and
  cumulative ACKs backward over the reversed route (the bidirectional
  regime);
* ``mixed`` — cycles cbr, onoff, windowed across the endpoint list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, List, Sequence, Tuple

from repro.net.flow import Flow
from repro.net.packet import DEFAULT_PACKET_BYTES
from repro.traffic.onoff import OnOffSource
from repro.traffic.sources import CbrSource
from repro.transport import TransportConfig, WindowedSender, install_reverse_routes

if TYPE_CHECKING:  # builders imports traffic.sources, whose package imports this
    from repro.topology.builders import Network

WORKLOAD_KINDS = ("cbr", "onoff", "windowed", "mixed")

_MIX_CYCLE = ("cbr", "onoff", "windowed")

#: Data packet size of every kind, in bytes.
PACKET_BYTES = DEFAULT_PACKET_BYTES
#: Mean on and off period lengths of the ``onoff`` kind, in seconds.
MEAN_ON_S = 4.0
MEAN_OFF_S = 2.0
#: Packets in flight, and data packets per cumulative ACK, of ``windowed``.
WINDOW = 8
ACK_EVERY = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload recipe, applied per endpoint by :func:`attach_workload`."""

    kind: str = "cbr"
    rate_bps: float = 250_000.0

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; known: {', '.join(WORKLOAD_KINDS)}"
            )
        if self.rate_bps <= 0:
            raise ValueError("rate must be positive")

    def kind_for(self, index: int) -> str:
        """The concrete kind of endpoint ``index`` (resolves ``mixed``)."""
        if self.kind == "mixed":
            return _MIX_CYCLE[index % len(_MIX_CYCLE)]
        return self.kind


@dataclass
class AttachedFlow:
    """One attached endpoint: its flow, kind, and driving object."""

    flow: Flow
    kind: str
    driver: object  # CbrSource | OnOffSource | WindowedSender


def attach_workload(
    network: Network,
    endpoints: Sequence[Tuple[Hashable, Hashable]],
    spec: WorkloadSpec,
    flow_prefix: str = "W",
) -> List[AttachedFlow]:
    """Create one flow + driver per (src, dst) endpoint.

    Flows are named ``<prefix><index>`` in endpoint order; every driver
    is appended to ``network.sources`` so ``network.run`` starts it.
    Forward routes must already be installed (topology builders do
    this); the windowed kind additionally installs the reverse route
    for its ACK stream by reversing the materialised forward path.
    """
    attached: List[AttachedFlow] = []
    for index, (src, dst) in enumerate(endpoints):
        kind = spec.kind_for(index)
        flow = Flow(f"{flow_prefix}{index}", src=src, dst=dst)
        network.flows[flow.flow_id] = flow
        network.nodes[dst].register_flow(flow)
        if kind == "cbr":
            driver: object = CbrSource(
                network.engine, network.nodes[src], flow, rate_bps=spec.rate_bps
            )
        elif kind == "onoff":
            driver = OnOffSource(
                network.engine,
                network.nodes[src],
                flow,
                rate_bps=spec.rate_bps,
                rng=network.rng,
                mean_on_s=MEAN_ON_S,
                mean_off_s=MEAN_OFF_S,
            )
        else:
            forward_path = network.routing.path(src, dst)
            install_reverse_routes(network.routing, forward_path)
            driver = WindowedSender(
                network.engine,
                network.nodes[src],
                network.nodes[dst],
                flow,
                TransportConfig(
                    window=WINDOW, data_bytes=PACKET_BYTES, ack_every=ACK_EVERY
                ),
            )
        network.sources.append(driver)
        attached.append(AttachedFlow(flow=flow, kind=kind, driver=driver))
    return attached

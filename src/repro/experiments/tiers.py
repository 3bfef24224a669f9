"""The meshgen family's engine tiers: one scenario, two back ends.

:func:`repro.experiments.meshgen.run` validates its keywords, freezes
them into a :class:`MeshScenarioIR` and hands it, by its ``fidelity``
axis, to one of the two tiers here.

:func:`run_event` is the full event core (per-frame MAC/PHY,
controllers, tracing); its exports are the family's byte-stable
artefacts. :func:`run_slotted` executes the same IR on the
slot-synchronous core (:mod:`repro.sim.slotted`): topology, routes,
sampled flows, loss models, churn and the algorithm's cw law are the
same *scenario* semantics; the physics is one contention phase per
calibrated slot. Both tiers pass their measurements to one renderer
(:func:`_render`), so they emit the same tables and summary metric
names, the results layer compares tiers like any other swept axis, and
:mod:`repro.results.validation` can measure their agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.baselines.diffq import DIFFQ_HEADER_BYTES, DiffQConfig, attach_diffq
from repro.baselines.penalty import PenaltyStrategy, apply_penalty
from repro.core import attach_ezflow
from repro.experiments.common import ExperimentResult
from repro.experiments.meshgen import PENALTY_Q
from repro.mac.dcf import DcfConfig
from repro.mac.frames import MAC_DATA_HEADER_BYTES
from repro.metrics.fairness import jain_fairness_index
from repro.metrics.occupancy import group_mean_series
from repro.metrics.sampling import BufferSampler
from repro.net.node import FWD, OWN
from repro.phy.linkstate import LinkModels, LossSpec, apply_loss_models
from repro.results.metrics import MESHGEN_SUMMARY_COLUMNS
from repro.sim.rng import RngRegistry
from repro.sim.slotted import DiffQCw, EZFlowCw, FixedCw, SlottedFlow, SlottedMesh
from repro.sim.units import seconds
from repro.telemetry.probe import current_probe
from repro.topology.churn import ChurnDriver, ChurnEvent, ChurnSchedule
from repro.topology.meshgen import (
    MeshSpec,
    MeshTopology,
    bfs_tree,
    build_mesh_network,
    generate_topology,
    mean_degree,
)
from repro.traffic.workloads import (
    PACKET_BYTES,
    WINDOW,
    WorkloadSpec,
    attach_workload,
)

#: The meshgen family's closing note (shared verbatim by both tiers so
#: the event tier's exported bytes cannot drift).
_EXPECTED_SHAPE_NOTE = (
    "expected shape: ezflow holds fairness and aggregate goodput with "
    "near-empty relay rings; none lets rings closest to the gateways "
    "build backlog; diffq pays header overhead; penalty depends on "
    "whether q=1/8 suits the generated depth"
)

#: One flow's measurements, as a tier hands them to :func:`_render`:
#: (flow id, kind, source, gateway, goodput kb/s, path delay s,
#: generated packets, delivered packets).
FlowOutcome = Tuple[str, str, Hashable, Hashable, float, float, int, int]


@dataclass(frozen=True)
class MeshScenarioIR:
    """One validated generated-topology scenario, execution-agnostic.

    Raw axis values are kept verbatim (they are what gets exported);
    the parsed forms (``mesh_spec``, ``loss_spec``, ``churn_schedule``)
    ride along so tiers never re-parse. ``fidelity`` names the engine
    tier that will execute the scenario.
    """

    topology: str
    nodes: int
    density: float
    gateways: int
    flows: int
    workload: str
    algorithm: str
    rate_kbps: float
    duration_s: float
    warmup_s: float
    seed: int
    loss: str
    churn: str
    fidelity: str
    mesh_spec: MeshSpec
    loss_spec: Optional[LossSpec]
    churn_schedule: Optional[ChurnSchedule]


def sample_flow_sources(topology: MeshTopology, count: int, rng) -> List[Hashable]:
    """Pick ``count`` distinct non-gateway source nodes, seeded.

    ``rng`` is any :class:`~repro.sim.rng.RngRegistry` carrying the
    scenario's master seed: the ``meshgen.flows`` stream is a pure
    function of (seed, name), so both tiers — and anything else holding
    a registry on the same seed — sample the same sources.
    """
    candidates = sorted(n for n in topology.positions if n not in topology.gateways)
    stream = rng.stream("meshgen.flows")
    if count >= len(candidates):
        return candidates
    return stream.sample(candidates, count)


def _render(
    ir: MeshScenarioIR,
    topo: MeshTopology,
    flows: Sequence[FlowOutcome],
    backlog: Callable[[Hashable], int],
    node_mean: Callable[[Hashable], float],
    ring_series: Callable[[List[Hashable]], List[Tuple[float, float]]],
    lossy_links: int,
    churn_applied: int,
) -> ExperimentResult:
    """Build the family's result tables from one run's measurements.

    ``backlog`` is a node's final queue length, ``node_mean`` its mean
    sampled occupancy over the measurement window, and ``ring_series``
    the pointwise mean occupancy series of a sorted node list. The
    exported ``parameters`` carry the dynamic axes only when set, and
    ``fidelity`` only off the event default, so every static event run
    keeps its byte-identical artefacts.
    """
    parameters: Dict[str, object] = {
        "topology": ir.topology,
        "nodes": ir.nodes,
        "density": ir.density,
        "gateways": ir.gateways,
        "flows": len(flows),
        "workload": ir.workload,
        "algorithm": ir.algorithm,
        "rate_kbps": ir.rate_kbps,
        "duration_s": ir.duration_s,
        "seed": ir.seed,
    }
    if ir.loss:
        parameters["loss"] = ir.loss
    if ir.churn:
        parameters["churn"] = ir.churn
    if ir.fidelity != "event":
        parameters["fidelity"] = ir.fidelity
    description = (
        f"generated {ir.topology} ({ir.nodes} nodes) under "
        f"{ir.workload} workload, algorithm {ir.algorithm}"
    )
    result = ExperimentResult("meshgen", description, parameters=parameters)

    shape = result.table(
        "Topology",
        ["kind", "nodes", "gateways", "mean_degree", "resample_attempts", "connected"],
    )
    shape.add(
        ir.topology,
        ir.nodes,
        len(topo.gateways),
        mean_degree(topo.connectivity),
        topo.attempts,
        "yes",  # generation validates connectivity; reaching here proves it
    )

    if ir.loss or ir.churn_schedule is not None:
        dynamics = result.table(
            "Dynamic link state", ["loss_model", "lossy_links", "churn_events_applied"]
        )
        # Final count: includes links churn created during the run.
        dynamics.add(ir.loss or "none", lossy_links, churn_applied)

    per_flow = result.table(
        "Per-flow goodput",
        ["flow", "kind", "src", "gateway", "hops", "goodput_kbps", "path_delay_s"],
    )
    throughputs = []
    generated_total = 0
    delivered_total = 0
    for flow_id, kind, src, gateway, goodput, delay, generated, delivered in flows:
        per_flow.add(
            flow_id, kind, src, gateway, topo.depths[gateway][src], goodput, delay
        )
        throughputs.append(goodput)
        generated_total += generated
        delivered_total += delivered

    # Column names are the canonical scalar-metric names the results
    # layer (repro.results) compares across runs; the constant keeps
    # harness, compare tables and docs in sync without changing bytes.
    summary = result.table("Summary", list(MESHGEN_SUMMARY_COLUMNS))
    relays = sorted(n for n in topo.positions if n not in topo.gateways)
    summary.add(
        jain_fairness_index(throughputs),
        sum(throughputs),
        delivered_total / generated_total if generated_total else 0.0,
        sum(backlog(n) for n in relays),
    )

    # Queue backlog by hop ring: every node grouped by BFS distance to
    # its nearest gateway (gateways are ring 0).
    rings: Dict[int, List[Hashable]] = {}
    for node in sorted(topo.positions):
        if node in topo.gateways:
            rings.setdefault(0, []).append(node)
        else:
            gw = topo.nearest[node]
            rings.setdefault(topo.depths[gw][node], []).append(node)
    ring_table = result.table(
        "Queue occupancy by hop", ["hop", "nodes", "mean_buffer_pkts"]
    )
    for hop in sorted(rings):
        members = sorted(rings[hop], key=str)
        means = [node_mean(node) for node in members]
        ring_table.add(hop, len(members), sum(means) / len(means) if means else 0.0)
        result.series[f"occupancy.hop{hop}"] = ring_series(members)

    result.notes.append(_EXPECTED_SHAPE_NOTE)
    return result


def _materialise_queues(network, topo, attached) -> None:
    """Create every MAC queue/entity a flow's path will use, up front.

    Node stacks create transmit entities lazily on first packet, so a
    static strategy applied before traffic starts (penalty pins CWmin on
    existing entities) would otherwise see an empty MAC and silently do
    nothing. Windowed flows also need their reverse-path queues for the
    ACK stream.
    """
    for item in attached:
        flow = item.flow
        paths = [topo.route_to_gateway(flow.src, flow.dst)]
        if item.kind == "windowed":
            paths.append(list(reversed(paths[0])))
        for path in paths:
            network.nodes[path[0]].queue_for(OWN, path[1])
            for here, nxt in zip(path[1:], path[2:]):
                network.nodes[here].queue_for(FWD, nxt)


def run_event(ir: MeshScenarioIR) -> ExperimentResult:
    """Execute ``ir`` on the event core (``fidelity=event``)."""
    network, topo = build_mesh_network(ir.mesh_spec)
    sources = sample_flow_sources(topo, ir.flows, network.rng)
    endpoints = [(src, topo.nearest[src]) for src in sources]
    attached = attach_workload(
        network,
        endpoints,
        WorkloadSpec(kind=ir.workload, rate_bps=ir.rate_kbps * 1000.0),
        flow_prefix="M",
    )

    _materialise_queues(network, topo, attached)
    if ir.algorithm == "ezflow":
        attach_ezflow(network.nodes)
    elif ir.algorithm == "diffq":
        attach_diffq(network.nodes)
    elif ir.algorithm == "penalty":
        apply_penalty(network.nodes, sources=set(sources), q=PENALTY_Q)

    if ir.loss_spec is not None:
        apply_loss_models(
            network.channel, network.connectivity, ir.loss_spec, network.rng
        )
    churn_driver = None
    if ir.churn_schedule is not None:
        # The driver carries the loss spec so reception edges created by
        # mobility/up events become lossy the moment they appear.
        churn_driver = ChurnDriver(network, ir.churn_schedule, loss_spec=ir.loss_spec)
        churn_driver.install()

    sampler = BufferSampler(network.engine, network.nodes)
    sampler.start()
    session = current_probe()
    if session is None:
        network.run(until_us=seconds(ir.duration_s))
    else:
        # Probed: drive the same run in observer-sized chunks. The
        # chunked engine walk dispatches a bit-identical event
        # sequence, so attached results equal detached results.
        network.start_sources()
        duration_us = seconds(ir.duration_s)
        interval_us = max(1, seconds(session.sample_interval_s))

        def observe(now_us: int, processed: int) -> None:
            now_s = now_us / 1_000_000.0
            session.progress(now_s, processed, now_s / ir.duration_s)
            session.metric(
                now_s,
                "goodput_kbps",
                {
                    str(item.flow.flow_id): item.flow.throughput_bps(0, now_us)
                    / 1000.0
                    for item in attached
                },
            )

        network.engine.run_observed(duration_us, interval_us, observe)
    start, end = seconds(ir.warmup_s), seconds(ir.duration_s)

    flows: List[FlowOutcome] = []
    for item in attached:
        flow = item.flow
        goodput = flow.throughput_bps(start, end) / 1000.0
        generated = flow.generated
        delivered = flow.delivered
        if item.kind == "windowed":
            # Go-back-N duplicates reach the gateway and are counted by
            # the flow's delivery accounting; only in-order progress is
            # goodput. Scale by the unique fraction and charge
            # retransmissions as generations so the ratio stays honest.
            unique = item.driver.delivered_in_order / max(1, delivered)
            goodput *= unique
            delivered = item.driver.delivered_in_order
            generated += item.driver.retransmissions
        delay = flow.mean_path_delay_s(start, end)
        flows.append((
            str(flow.flow_id), item.kind, flow.src, flow.dst,
            goodput, delay, generated, delivered,
        ))

    result = _render(
        ir,
        topo,
        flows,
        backlog=lambda node: network.nodes[node].total_buffer_occupancy(),
        node_mean=lambda node: sampler.mean_occupancy(node, start, end),
        ring_series=lambda members: group_mean_series(sampler, members),
        lossy_links=network.channel.link_model_count(),
        churn_applied=0 if churn_driver is None else len(churn_driver.applied),
    )
    result.note_runtime(network.engine)
    return result


# -- the slot-synchronous tier --------------------------------------------


def _slot_length_us(algorithm: str, config: DcfConfig) -> float:
    """Calibrated slot length: one full successful frame exchange.

    DIFS + mean CWmin backoff + data air time (MAC header + payload,
    plus the DiffQ piggyback header when that algorithm runs) + SIFS +
    ACK. Contention-window *adaptation* shifts who wins a slot (the
    1/cw weights), not the slot length — a deliberate approximation of
    the event tier's variable-length exchanges.
    """
    rates = config.rates
    payload = PACKET_BYTES + MAC_DATA_HEADER_BYTES
    if algorithm == "diffq":
        payload += DIFFQ_HEADER_BYTES
    mean_backoff_us = (config.cwmin - 1) / 2.0 * rates.slot_time_us
    return (
        rates.difs_us
        + mean_backoff_us
        + rates.frame_tx_time_us(payload)
        + rates.sifs_us
        + rates.ack_tx_time_us()
    )


def run_slotted(ir: MeshScenarioIR) -> ExperimentResult:
    """Execute ``ir`` on the slot-synchronous core (``fidelity=slotted``)."""
    topo = generate_topology(ir.mesh_spec)
    connectivity = topo.connectivity
    # Scenario-level streams (flow sampling, onoff phases, per-link
    # loss) come from a registry on the scenario seed: stream values
    # are pure functions of (seed, name), so flow sampling matches
    # the event tier's draw for draw.
    registry = RngRegistry(ir.seed)
    sources = sample_flow_sources(topo, ir.flows, registry)
    endpoints = [(src, topo.nearest[src]) for src in sources]
    workload = WorkloadSpec(kind=ir.workload, rate_bps=ir.rate_kbps * 1000.0)

    config = DcfConfig()
    slot_us = _slot_length_us(ir.algorithm, config)
    slot_s = slot_us / 1e6
    pkts_per_slot = workload.rate_bps * slot_s / (PACKET_BYTES * 8)

    flows: List[SlottedFlow] = []
    for index, (src, dst) in enumerate(endpoints):
        kind = workload.kind_for(index)
        flow_id = f"M{index}"
        flows.append(
            SlottedFlow(
                flow_id,
                kind,
                src,
                dst,
                pkts_per_slot=pkts_per_slot if kind != "windowed" else 0.0,
                window=WINDOW if kind == "windowed" else 0,
                stream=(
                    registry.stream(f"slotted.workload.{flow_id}")
                    if kind == "onoff"
                    else None
                ),
            )
        )

    initial_cw: Dict[Hashable, int] = {}
    rule = FixedCw()
    if ir.algorithm == "ezflow":
        rule = EZFlowCw()
    elif ir.algorithm == "diffq":
        rule = DiffQCw(DiffQConfig().cwmin_for)
    elif ir.algorithm == "penalty":
        strategy = PenaltyStrategy(PENALTY_Q)
        source_set = set(sources)
        source_cw = strategy.source_cw()
        initial_cw = {
            node: source_cw if node in source_set else strategy.cw_relay
            for node in connectivity.nodes()
        }

    loss_models = LinkModels()
    if ir.loss_spec is not None:
        apply_loss_models(loss_models, connectivity, ir.loss_spec, registry)

    churn_events: List[ChurnEvent] = []
    if ir.churn_schedule is not None:
        ir.churn_schedule.check_nodes(connectivity)
        churn_events = ir.churn_schedule.ordered()

    model = SlottedMesh(
        connectivity,
        flows,
        rng=registry.stream("slotted.contention"),
        slot_s=slot_s,
        initial_cw=initial_cw,
        rule=rule,
        loss=None if ir.loss_spec is None else loss_models.link_model,
        # Static runs never deactivate a node, so skip the per-node
        # liveness probe in the hot contention loop entirely.
        active_filter=None if ir.churn_schedule is None else "auto",
    )
    model.set_routes({gw: topo.parents[gw] for gw in topo.gateways})

    total_slots = int(seconds(ir.duration_s) // slot_us)
    sample_times: List[float] = []
    node_samples: Dict[Hashable, List[int]] = {n: [] for n in connectivity.nodes()}
    flow_samples: Dict[str, List[int]] = {f.flow_id: [] for f in flows}
    next_sample_s = 0.0
    delivered_at_warmup = None
    event_index = 0
    step = model.step
    churn_count = len(churn_events)
    # Detached telemetry is one float compare per slot (inf never
    # triggers); attached, samples fire on sim-time boundaries.
    session = current_probe()
    telem_next_s = 0.0 if session is not None else float("inf")
    for slot_index in range(total_slots):
        now = slot_index * slot_s
        if now >= telem_next_s:
            session.progress(now, slot_index, now / ir.duration_s)
            if now > 0.0:
                snapshot = model.telemetry_snapshot()
                session.metric(
                    now,
                    "goodput_kbps",
                    {
                        flow_id: counts["delivered"]
                        * PACKET_BYTES
                        * 8
                        / now
                        / 1000.0
                        for flow_id, counts in snapshot["flows"].items()
                    },
                )
            while telem_next_s <= now:
                telem_next_s += session.sample_interval_s
        if event_index < churn_count and churn_events[event_index].time_s <= now:
            while event_index < churn_count and churn_events[event_index].time_s <= now:
                churn_events[event_index].apply(connectivity)
                if ir.loss_spec is not None:
                    apply_loss_models(loss_models, connectivity, ir.loss_spec, registry)
                event_index += 1
            # One reroute per event batch, against the mutated map;
            # unreachable nodes drop out of the trees and their
            # packets wait, the slotted analogue of stale routes.
            model.set_routes(
                {gw: bfs_tree(connectivity, gw)[1] for gw in topo.gateways}
            )
        if delivered_at_warmup is None and now >= ir.warmup_s:
            delivered_at_warmup = {f.flow_id: f.delivered for f in flows}
        while now >= next_sample_s:
            backlog = model.backlog()
            per_flow_backlog = model.flow_backlog()
            sample_times.append(next_sample_s)
            for node, value in backlog.items():
                node_samples[node].append(value)
            for flow_id, value in per_flow_backlog.items():
                flow_samples[flow_id].append(value)
            next_sample_s += 1.0
        step(False)
    if delivered_at_warmup is None:
        delivered_at_warmup = {f.flow_id: f.delivered for f in flows}

    window_s = ir.duration_s - ir.warmup_s
    window_index = [
        i for i, t in enumerate(sample_times) if ir.warmup_s <= t <= ir.duration_s
    ]

    def window_mean(samples: List[int]) -> float:
        values = [samples[i] for i in window_index]
        return sum(values) / len(values) if values else 0.0

    def ring_series(members: List[Hashable]) -> List[Tuple[float, float]]:
        return [
            (t, sum(node_samples[node][i] for node in members) / len(members))
            for i, t in enumerate(sample_times)
        ]

    outcomes: List[FlowOutcome] = []
    for flow, (src, dst) in zip(flows, endpoints):
        window_delivered = flow.delivered - delivered_at_warmup[flow.flow_id]
        # A zero-length window (duration == warmup) reports zero
        # goodput, matching the event tier's rate accounting.
        goodput = (
            window_delivered * PACKET_BYTES * 8 / window_s / 1000.0
            if window_s > 0
            else 0.0
        )
        # End-to-end delay by Little's law: mean in-network packets
        # over the window divided by the delivery rate.
        mean_in_flight = window_mean(flow_samples[flow.flow_id])
        delay = (
            mean_in_flight * window_s / window_delivered if window_delivered else 0.0
        )
        outcomes.append((
            flow.flow_id, flow.kind, src, dst,
            goodput, delay, flow.generated, flow.delivered,
        ))

    result = _render(
        ir,
        topo,
        outcomes,
        backlog=lambda node: len(model.queues[node]),
        node_mean=lambda node: window_mean(node_samples[node]),
        ring_series=ring_series,
        lossy_links=len(loss_models),
        churn_applied=event_index,
    )
    # One contention phase per slot is the tier's unit of work (the
    # analogue of the event count); runtime never reaches exports.
    result.runtime["events"] = float(total_slots)
    result.runtime["sim_ticks"] = float(seconds(ir.duration_s))
    result.runtime["slots"] = float(total_slots)
    result.notes.append(
        "slotted tier: one contention phase per "
        f"{slot_us:.0f} us slot (winner process over live connectivity); "
        "no MAC retry limit, instant transport ACKs, fixed slot length — "
        "cross-tier deltas are measured by `validate-fidelity`"
    )
    return result

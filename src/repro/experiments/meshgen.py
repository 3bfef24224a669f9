"""Generated-topology sweep family: EZ-flow vs baselines at scale.

The paper evaluates on four hand-built layouts; this harness runs one
*generated* topology per invocation — random geometric mesh, grid, or
multi-gateway tree (:mod:`repro.topology.meshgen`) — under a chosen
workload mix (:mod:`repro.traffic.workloads`) and congestion-control
algorithm, and reports the metrics the paper cares about: per-flow and
aggregate goodput, Jain's fairness index, and queue backlog by hop
ring. Swept over nodes x topology x workload x algorithm x seed — plus
the dynamic ``loss`` (per-link Bernoulli / Gilbert-Elliott erasures)
and ``churn`` (node down/up, waypoint mobility) axes — by the sweep
runner, it turns the evaluation into a hundreds-of-scenarios
regression surface.

Algorithms: ``none`` (standard 802.11), ``ezflow`` (the paper),
``diffq`` (differential backlog with message passing), ``penalty``
(static source throttling, q = 1/8 as in scenario 1).

Execution is tiered: :func:`run` validates its keywords, freezes them
into a scenario IR and hands it, by the ``fidelity`` axis, to one of
the two engine tiers in :mod:`repro.experiments.tiers` — ``event`` is
the per-frame core whose exports are the family's byte-stable
artefacts, ``slotted`` the slot-synchronous fast tier. Cross-tier
agreement is measured, not assumed: see :mod:`repro.results.validation`.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.phy.linkstate import parse_loss_spec
from repro.topology.churn import parse_churn_spec
from repro.topology.meshgen import MeshSpec

__all__ = ["ALGORITHMS", "PENALTY_Q", "FIDELITIES", "run"]

ALGORITHMS = ("none", "ezflow", "diffq", "penalty")

#: Static-penalty throttling factor (scenario 1's converged setting:
#: relays at 2^4, sources at 2^7).
PENALTY_Q = 0.125

#: The engine tiers this family runs on (the ``fidelity`` axis values).
FIDELITIES = ("event", "slotted")


def run(
    topology: str = "mesh",
    nodes: int = 16,
    density: float = 1.5,
    gateways: int = 2,
    flows: int = 4,
    workload: str = "cbr",
    algorithm: str = "none",
    rate_kbps: float = 400.0,
    duration_s: float = 30.0,
    warmup_s: float = 5.0,
    seed: int = 11,
    loss: str = "",
    churn: str = "",
    fidelity: str = "event",
) -> ExperimentResult:
    """Run one generated topology under one workload and algorithm.

    ``loss`` and ``churn`` open the dynamic-link-state workload class:
    ``loss`` installs a seeded per-link loss model on every reception
    edge (``iid:P`` or ``ge:PGB:PBG[:PBAD[:PGOOD]]``, see
    :mod:`repro.phy.linkstate`); ``churn`` schedules node down/up and
    waypoint mobility events (``down:N@T+up:N@T+move:N@T:X:Y``, see
    :mod:`repro.topology.churn`), each of which invalidates the
    channel's delivery plans and re-runs BFS routing against the
    mutated map. Both default to off, in which case the run — and its
    exported bytes — is identical to the static harness. Hop counts and
    occupancy rings are reported against the *initial* layout.

    ``fidelity`` selects the engine tier: ``event`` (default — the
    per-frame core, byte-identical artefacts) or ``slotted`` (the
    slot-synchronous fast tier, same scenario and metrics surface at a
    fraction of the cost). Like the dynamic axes, a non-default
    ``fidelity`` is recorded in the exported parameters.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; known: {', '.join(ALGORITHMS)}"
        )
    loss_spec = parse_loss_spec(loss) if loss else None
    churn_schedule = parse_churn_spec(churn) if churn else None
    mesh_spec = MeshSpec(
        kind=topology, nodes=nodes, density=density, gateways=gateways, seed=seed
    )
    if fidelity not in FIDELITIES:
        raise ValueError(
            f"unknown fidelity {fidelity!r}; known: {', '.join(FIDELITIES)}"
        )
    # Imported on first run, so listing the catalogue never loads either
    # execution back end.
    from repro.experiments import tiers

    ir = tiers.MeshScenarioIR(
        topology=topology,
        nodes=nodes,
        density=density,
        gateways=gateways,
        flows=flows,
        workload=workload,
        algorithm=algorithm,
        rate_kbps=rate_kbps,
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=seed,
        loss=loss,
        churn=churn,
        fidelity=fidelity,
        mesh_spec=mesh_spec,
        loss_spec=loss_spec,
        churn_schedule=churn_schedule,
    )
    if fidelity == "slotted":
        return tiers.run_slotted(ir)
    return tiers.run_event(ir)

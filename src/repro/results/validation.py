"""Cross-tier validation: does the slotted fast tier agree with the core?

The slot-synchronous tier (``fidelity=slotted``) buys its speed with
abstractions — one contention phase per slot, instant ACKs, a fair
winner process instead of per-frame binary exponential backoff. Those
are *modelling* choices, so agreement with the event core is measured,
never assumed: :func:`validate_fidelity` pairs event/slotted runs of
the same scenario (same topology, nodes, seed, algorithm, ...) and
checks each headline metric's delta against an explicit tolerance.

Tolerances encode the calibrated envelope of the abstraction gap, not
wishful thinking. The defaults come from sweeping the 2-topology x
3-algorithm CI matrix: aggregate goodput and delivery ratio track
within tens of percent, while Jain fairness needs a wide band — the
event MAC's exponential-backoff capture effect starves multi-hop flows
far harder than the paper's fair winner process, a divergence the
slotted model inherits *by design* (it generalises the paper's
analytical chain model). CI gates on these bands so the gap can only
shrink silently, never grow.

``python -m repro.experiments validate-fidelity`` runs a fresh matrix
and renders the report; exit status 1 flags any tolerance violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.common import Table
from repro.results.types import ResultSet, RunResult

#: The fidelity axis value whose runs are the reference side of a pair.
BASELINE_FIDELITY = "event"


class ValidationError(ValueError):
    """The result set cannot be arranged into event/slotted pairs."""


@dataclass(frozen=True)
class Tolerance:
    """Agreement band for one scalar metric.

    A delta passes when it is inside *either* bound (``math.isclose``
    semantics): ``abs_tol`` is an absolute band, ``rel_tol`` is
    relative to the baseline magnitude (floored to dodge divide-by-
    zero on dead metrics). At least one bound must be set.
    """

    metric: str
    rel_tol: Optional[float] = None
    abs_tol: Optional[float] = None
    floor: float = 1e-9

    def __post_init__(self):
        if self.rel_tol is None and self.abs_tol is None:
            raise ValueError(f"tolerance for {self.metric!r} needs a bound")

    def deltas(self, base: float, candidate: float) -> Tuple[float, float]:
        """(absolute delta, relative delta) of candidate vs base."""
        abs_delta = abs(candidate - base)
        return abs_delta, abs_delta / max(abs(base), self.floor)

    def accepts(self, base: float, candidate: float) -> bool:
        """True when either configured bound (abs or rel) is met."""
        abs_delta, rel_delta = self.deltas(base, candidate)
        if self.abs_tol is not None and abs_delta <= self.abs_tol:
            return True
        return self.rel_tol is not None and rel_delta <= self.rel_tol

    def describe(self) -> str:
        """Render the bounds for report tables, e.g. ``abs<=30|rel<=0.4``."""
        parts = []
        if self.abs_tol is not None:
            parts.append(f"abs<={self.abs_tol:g}")
        if self.rel_tol is not None:
            parts.append(f"rel<={self.rel_tol:g}")
        return "|".join(parts)


#: Calibrated default bands (see module docstring for provenance).
#: Worst observed deltas on the default matrix (n16, 30 s): aggregate
#: rel 0.28, delivered rel 0.29 / abs 0.17, jain abs 0.46 — each limit
#: leaves ~20-40% headroom over the measured envelope. The dynamic
#: link-state cases (:data:`DYNAMIC_CASES`) sit inside the same bands.
DEFAULT_TOLERANCES: Tuple[Tolerance, ...] = (
    Tolerance("aggregate_kbps", rel_tol=0.40, abs_tol=30.0),
    Tolerance("delivered_ratio", rel_tol=0.35, abs_tol=0.15),
    Tolerance("jain_fairness", abs_tol=0.55),
)

#: Dynamic link-state pair blocks appended to the standard matrix: one
#: lossy case and one churn case, each a single (topology, algorithm)
#: point run on both tiers. Loss and churn exercise entirely different
#: slotted-tier code paths (per-slot loss draws, plan invalidation +
#: re-routing) than the static grid, so the agreement gate covers them
#: explicitly rather than by hope. The timeline of the churn case (node
#: 2 — a relay the default layout actually routes through, so the
#: outage forces a detour on both tiers — down at t=10 s, back at
#: t=20 s) assumes the default 30 s duration; callers shrinking
#: ``duration_s`` below 20 s should pass their own cases (or none).
#: Measured envelope of the dynamic pairs (n16, 30 s, seed 11): churn
#: aggregate rel 0.31 / delivered abs 0.08 / jain abs 0.31; loss
#: aggregate rel 0.22 / delivered abs 0.06 / jain abs 0.50 — the loss
#: pair's jain delta is the tightest check in the whole matrix.
DYNAMIC_CASES: Tuple[Mapping[str, object], ...] = (
    {"topology": "mesh", "algorithm": "ezflow", "loss": "iid:0.1"},
    {"topology": "mesh", "algorithm": "ezflow", "churn": "down:2@10+up:2@20"},
)


@dataclass(frozen=True)
class ValidationRow:
    """One (scenario, metric) agreement check."""

    scenario: Tuple[Tuple[str, object], ...]  # aligned key, as sorted items
    metric: str
    baseline: float
    candidate: float
    abs_delta: float
    rel_delta: float
    limit: str
    ok: bool

    @property
    def scenario_dict(self) -> Dict[str, object]:
        return dict(self.scenario)


@dataclass(frozen=True)
class ValidationReport:
    """Every checked pair's deltas plus the bookkeeping CI needs."""

    rows: Tuple[ValidationRow, ...]
    pair_count: int
    unpaired: Tuple[str, ...]  # run ids with no partner on the other tier

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def violations(self) -> Tuple[ValidationRow, ...]:
        return tuple(row for row in self.rows if not row.ok)

    def table(self, candidate: str = "slotted") -> Table:
        """The report as a result-style table (deterministic bytes)."""
        align = list(self.rows[0].scenario_dict) if self.rows else []
        columns = align + [
            "metric",
            BASELINE_FIDELITY,
            candidate,
            "Δabs",
            "Δrel",
            "limit",
            "ok",
        ]
        table = Table(f"Fidelity agreement: {candidate} vs {BASELINE_FIDELITY}", columns)
        for row in self.rows:
            table.add(
                *[row.scenario_dict.get(name, "") for name in align],
                row.metric,
                row.baseline,
                row.candidate,
                round(row.abs_delta, 4),
                round(row.rel_delta, 4),
                row.limit,
                "yes" if row.ok else "NO",
            )
        return table


def _fidelity_of(run: RunResult) -> str:
    # Exported parameters elide fidelity at its event default; the
    # request kwargs (when the sweep set the axis) fill it in.
    return str(run.effective_param("fidelity", BASELINE_FIDELITY))


def validate_fidelity(
    results: ResultSet,
    candidate: str = "slotted",
    tolerances: Optional[Sequence[Tolerance]] = None,
    align: Optional[Sequence[str]] = None,
) -> ValidationReport:
    """Pair event/``candidate`` runs and check metric agreement.

    Runs are grouped by ``align`` (default: every parameter that varies
    across the set except ``fidelity`` — which subsumes the layout
    identity topology/nodes/seed plus any swept axis). Each group must
    hold at most one run per tier; a group with both tiers yields one
    :class:`ValidationRow` per tolerance, a group with only one tier is
    reported in ``unpaired``. Runs on tiers other than the baseline and
    ``candidate`` are ignored.
    """
    if not len(results):
        raise ValidationError("empty result set")
    if candidate == BASELINE_FIDELITY:
        raise ValidationError("candidate tier must differ from the event baseline")
    tolerances = tuple(DEFAULT_TOLERANCES if tolerances is None else tolerances)
    if not tolerances:
        raise ValidationError("need at least one metric tolerance")
    if align is None:
        align = results.varying_keys(exclude=("fidelity",))
    align = list(align)

    groups: Dict[Tuple[str, ...], Dict[str, RunResult]] = {}
    order: List[Tuple[str, ...]] = []
    for run in results:
        tier = _fidelity_of(run)
        if tier not in (BASELINE_FIDELITY, candidate):
            continue
        key = tuple(str(run.effective_param(name)) for name in align)
        if key not in groups:
            groups[key] = {}
            order.append(key)
        if tier in groups[key]:
            raise ValidationError(
                f"aligned group {dict(zip(align, key))} holds several "
                f"{tier} runs; add the distinguishing parameter to align"
            )
        groups[key][tier] = run

    rows: List[ValidationRow] = []
    unpaired: List[str] = []
    pair_count = 0
    for key in sorted(order):
        pair = groups[key]
        if len(pair) < 2:
            unpaired.extend(run.run_id for run in pair.values())
            continue
        pair_count += 1
        base, cand = pair[BASELINE_FIDELITY], pair[candidate]
        scenario = tuple(zip(align, key))
        for tolerance in tolerances:
            base_value = base.scalar(tolerance.metric)
            cand_value = cand.scalar(tolerance.metric)
            if base_value is None or cand_value is None:
                raise ValidationError(
                    f"metric {tolerance.metric!r} missing from "
                    f"{base.run_id if base_value is None else cand.run_id}"
                )
            abs_delta, rel_delta = tolerance.deltas(base_value, cand_value)
            rows.append(
                ValidationRow(
                    scenario=scenario,
                    metric=tolerance.metric,
                    baseline=base_value,
                    candidate=cand_value,
                    abs_delta=abs_delta,
                    rel_delta=rel_delta,
                    limit=tolerance.describe(),
                    ok=tolerance.accepts(base_value, cand_value),
                )
            )
    if not pair_count:
        raise ValidationError(
            f"no {BASELINE_FIDELITY}/{candidate} pair shares an aligned "
            f"scenario; check the sweep's fidelity axis"
        )
    return ValidationReport(
        rows=tuple(rows), pair_count=pair_count, unpaired=tuple(unpaired)
    )


def validation_study(
    topologies: Sequence[str] = ("mesh", "grid"),
    algorithms: Sequence[str] = ("none", "ezflow", "diffq"),
    candidate: str = "slotted",
    nodes: int = 16,
    duration_s: float = 30.0,
    seed: int = 11,
    jobs: int = 1,
    dynamic_cases: Optional[Sequence[Mapping[str, object]]] = None,
    store=None,
) -> ResultSet:
    """Run the standard cross-tier matrix and return its result set.

    The CI ``fidelity-smoke`` job runs exactly this: the static grid (2
    topologies x 3 algorithms x both tiers = 12 runs) plus one
    event/``candidate`` pair per dynamic link-state case
    (:data:`DYNAMIC_CASES` unless overridden; pass ``()`` to skip, the
    CLI's ``--static-only``) before handing the set to
    :func:`validate_fidelity`. ``store`` checkpoints every block into
    one :class:`~repro.results.store.SqliteStore`, so an interrupted
    matrix resumes instead of restarting.
    """
    from repro.results.study import Study

    runs: List[RunResult] = list(
        Study("meshgen")
        .grid(
            topology=list(topologies),
            algorithm=list(algorithms),
            fidelity=[BASELINE_FIDELITY, candidate],
        )
        .set(nodes=nodes, duration_s=duration_s, seed=seed)
        .run(jobs=jobs, store=store)
    )
    if dynamic_cases is None:
        dynamic_cases = DYNAMIC_CASES
    for case in dynamic_cases:
        runs.extend(
            Study("meshgen")
            .grid(fidelity=[BASELINE_FIDELITY, candidate])
            .set(nodes=nodes, duration_s=duration_s, seed=seed, **case)
            .run(jobs=jobs, store=store)
        )
    return ResultSet(runs)

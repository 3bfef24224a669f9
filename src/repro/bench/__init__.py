"""Persistent benchmark suite: the repo's measured performance trajectory.

``python -m repro.bench`` runs a *declared* suite of cases — engine
dispatch micro-benchmarks, wall time of every canned paper figure, and a
meshgen scaling curve at 16/25/49/100 nodes — and emits a sorted-keys
JSON report (events/s and wall seconds per case). Reports are committed
as ``BENCH_<tag>.json`` baselines; ``--compare old.json`` renders a
delta table against any previous report, so speed is a regression-tested
property of the repo rather than a claim in a commit message.

Cross-machine comparisons are normalised by the engine-dispatch
micro-benchmark (a hardware speed index): a case only counts as a
regression if it got slower *relative to raw dispatch throughput* on the
same machine, which makes a ~30 % CI tolerance meaningful even when the
baseline was recorded on different hardware.

Case names are stable identifiers; a case is only comparable across two
reports when both its name and its kwargs match.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.micro import MICRO_CASES
from repro.bench.storecase import STORE_CASES
from repro.bench.telemetrycase import TELEMETRY_CASES

#: Every function-backed case (kind "micro"): engine micro-benchmarks
#: plus the result-store throughput and telemetry overhead cases.
FUNCTION_CASES = {**MICRO_CASES, **STORE_CASES, **TELEMETRY_CASES}

SCHEMA = "repro.bench/1"

#: The hardware speed index case used to normalise cross-machine deltas.
INDEX_CASE = "micro.engine_post_dispatch"


@dataclass(frozen=True)
class BenchCase:
    """One declared benchmark case.

    ``kind`` is ``micro`` (a function from :mod:`repro.bench.micro`) or
    ``scenario`` (an experiment id from the scenario catalogue run with
    explicit kwargs). ``quick`` cases form the CI subset; the full suite
    runs everything.
    """

    name: str
    kind: str  # "micro" | "scenario"
    target: str  # micro case name or scenario spec id
    kwargs: Tuple[Tuple[str, object], ...] = ()
    quick: bool = False
    repeat: int = 1

    @property
    def kwargs_dict(self) -> Dict[str, object]:
        return dict(self.kwargs)


def _kw(**kwargs) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(kwargs.items()))


def build_suite() -> List[BenchCase]:
    """The declared suite, in execution order (micro, figures, meshgen)."""
    cases: List[BenchCase] = []
    for name, (_, kwargs) in MICRO_CASES.items():
        cases.append(
            BenchCase(name, "micro", name, _kw(**kwargs), quick=True, repeat=3)
        )
    # Result-store throughput (insert + streaming scalars_frame/compare
    # over a synthetic store): the full 1k-run point, plus a short point
    # for the CI quick lane.
    cases.append(
        BenchCase(
            "results.store.n1000",
            "micro",
            "results.store.n1000",
            _kw(runs=1000),
            repeat=2,
        )
    )
    cases.append(
        BenchCase(
            "results.store.quick.n200",
            "micro",
            "results.store.quick.n200",
            _kw(runs=200),
            quick=True,
            repeat=2,
        )
    )
    # Telemetry plane overhead on the mid-size meshgen point: the case
    # itself runs attached and detached best-of-N and reports
    # overhead_frac (< 0.05 is the budget), so repeat stays 1 here.
    cases.append(
        BenchCase(
            "telemetry.overhead",
            "micro",
            "telemetry.overhead",
            _kw(nodes=49, density=1.5),
        )
    )
    # Every canned paper experiment at its default parameters: the
    # per-figure wall-time trajectory.
    for spec_id in (
        "fig1",
        "table1",
        "fig4",
        "table2",
        "scenario1",
        "scenario2",
        "stability",
        "loadsweep",
        "bidirectional",
    ):
        cases.append(BenchCase(f"figure.{spec_id}", "scenario", spec_id))
    # A short canned figure for the CI quick lane.
    cases.append(
        BenchCase(
            "figure.fig1.short",
            "scenario",
            "fig1",
            _kw(duration_s=60.0, warmup_s=10.0),
            quick=True,
        )
    )
    # Meshgen scaling curve: random geometric meshes at growing node
    # counts, default workload/algorithm. Density 1.5 keeps ~4.7
    # expected neighbours; at 100 nodes that is below the connectivity
    # threshold (~ln n), so the 100-node point runs at density 2.5.
    for nodes, density in ((16, 1.5), (25, 1.5), (49, 1.5), (100, 2.5)):
        cases.append(
            BenchCase(
                f"meshgen.n{nodes}",
                "scenario",
                "meshgen",
                _kw(nodes=nodes, density=density),
                repeat=2,
            )
        )
    # Short meshgen points for the CI quick lane.
    for nodes, density in ((16, 1.5), (49, 1.5)):
        cases.append(
            BenchCase(
                f"meshgen.quick.n{nodes}",
                "scenario",
                "meshgen",
                _kw(nodes=nodes, density=density, duration_s=8.0, warmup_s=2.0),
                quick=True,
                repeat=2,
            )
        )
    # The slotted fast tier on the same scaling curve: n100 mirrors the
    # event-core meshgen.n100 point (same kwargs plus fidelity), so a
    # report documents the tier speedup directly; n400 is only feasible
    # on this tier and tracks its own scaling headroom.
    cases.append(
        BenchCase(
            "meshgen.slotted.n100",
            "scenario",
            "meshgen",
            _kw(nodes=100, density=2.5, fidelity="slotted"),
            repeat=2,
        )
    )
    cases.append(
        BenchCase(
            "meshgen.slotted.n400",
            "scenario",
            "meshgen",
            _kw(nodes=400, density=2.5, fidelity="slotted"),
            repeat=2,
        )
    )
    # Mesh scale, where topology generation is a visible share of a
    # run: n1000 is the large slotted layout of ezbench's `mesh`
    # workload; n4000 at a short horizon tracks how generation and the
    # slot loop scale past it.
    cases.append(
        BenchCase(
            "meshgen.slotted.n1000",
            "scenario",
            "meshgen",
            _kw(
                nodes=1000,
                density=5.0,
                flows=40,
                fidelity="slotted",
                duration_s=4.0,
                warmup_s=1.0,
            ),
            repeat=2,
        )
    )
    cases.append(
        BenchCase(
            "meshgen.slotted.n4000",
            "scenario",
            "meshgen",
            _kw(
                nodes=4000,
                density=5.0,
                flows=40,
                fidelity="slotted",
                duration_s=2.0,
                warmup_s=0.5,
            ),
            repeat=2,
        )
    )
    # Dynamic link state: Gilbert-Elliott loss on every link plus a
    # churn/mobility schedule (down, move, up), so plan invalidation and
    # BFS re-routing are part of the measured trajectory.
    cases.append(
        BenchCase(
            "meshgen.churn.n25",
            "scenario",
            "meshgen",
            _kw(
                nodes=25,
                loss="ge:0.02:0.25",
                churn="down:3@6+move:5@10:150:150+up:3@14",
                duration_s=20.0,
                warmup_s=4.0,
            ),
            repeat=2,
        )
    )
    cases.append(
        BenchCase(
            "meshgen.churn.quick.n25",
            "scenario",
            "meshgen",
            _kw(
                nodes=25,
                loss="ge:0.02:0.25",
                churn="down:3@2+move:5@4:150:150+up:3@6",
                duration_s=8.0,
                warmup_s=2.0,
            ),
            quick=True,
            repeat=2,
        )
    )
    return cases


def run_case(case: BenchCase, repeat: Optional[int] = None) -> Dict[str, object]:
    """Execute one case; returns its report entry (best wall of N runs).

    Measurement hygiene: the shared testbed-run memoisation cache and
    the held meshgen layout are dropped and a full garbage collection
    runs before every round, so a case's wall time does not depend on
    which cases or rounds ran before it.
    """
    import gc

    from repro.experiments import testbedlab
    from repro.topology import meshgen

    rounds = max(1, repeat if repeat is not None else case.repeat)
    best_wall = None
    events: Optional[float] = None
    sim_ticks: Optional[float] = None
    best_scalars: Optional[Dict[str, float]] = None
    for _ in range(rounds):
        testbedlab.clear_cache()
        meshgen.clear_cache()
        gc.collect()
        if case.kind == "micro":
            fn, _defaults = FUNCTION_CASES[case.target]
            started = time.perf_counter()
            stats = fn(**case.kwargs_dict)
            wall = time.perf_counter() - started
            round_events = float(stats.get("events", 0)) or None
            round_ticks = None
            # Any extra numeric keys a micro case reports (e.g. the
            # telemetry case's overhead_frac) land as scalars, the same
            # slot scenario cases use for their headline metrics.
            round_scalars = {
                key: float(value)
                for key, value in stats.items()
                if key != "events" and isinstance(value, (int, float))
            } or None
        else:
            from repro.experiments.specs import get_spec
            from repro.results import RunResult

            spec = get_spec(case.target)
            started = time.perf_counter()
            result = spec.run(**case.kwargs_dict)
            wall = time.perf_counter() - started
            round_events = result.runtime.get("events")
            round_ticks = result.runtime.get("sim_ticks")
            # Keep only the small scalar dict, never the result itself:
            # holding a full result (series, tables) across the
            # remaining rounds would defeat the per-round gc isolation.
            round_scalars = RunResult.from_result(result).numeric_scalars()
            del result
        if best_wall is None or wall < best_wall:
            best_wall = wall
            events = round_events
            sim_ticks = round_ticks
            best_scalars = round_scalars
    entry: Dict[str, object] = {
        "kind": case.kind,
        "kwargs": case.kwargs_dict,
        "wall_s": round(best_wall, 6),
        "events": None if events is None else int(events),
        "events_per_s": (
            None if not events or best_wall <= 0 else round(events / best_wall, 1)
        ),
    }
    if sim_ticks:
        entry["sim_s"] = round(sim_ticks / 1e6, 6)
    if best_scalars is not None:
        # Scenario cases also record their headline scalar metrics (via
        # the typed results layer), so a bench report documents *what*
        # was computed alongside how fast — and a perf change that
        # shifts semantics shows up in the same file. Scalars are
        # deterministic; comparisons still match cases on name+kwargs
        # only, so older baselines without the key stay comparable.
        entry["scalars"] = best_scalars
    return entry


def run_suite(
    quick: bool = False,
    only: Optional[str] = None,
    repeat: Optional[int] = None,
    progress: Optional[Callable[[str, Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """Run the (filtered) suite and return the report dict."""
    report: Dict[str, object] = {
        "schema": SCHEMA,
        "suite": "quick" if quick else "full",
        "cases": {},
    }
    for case in build_suite():
        if quick and not case.quick:
            continue
        if only and only not in case.name:
            continue
        entry = run_case(case, repeat=repeat)
        report["cases"][case.name] = entry
        if progress is not None:
            progress(case.name, entry)
    return report


def dump_report(report: Dict[str, object], path: str) -> None:
    """Write a report as deterministic JSON (sorted keys, newline-final)."""
    with open(path, "w") as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_report(path: str) -> Dict[str, object]:
    """Read a previously written report JSON."""
    with open(path) as handle:
        return json.load(handle)


def hardware_index(old: Dict[str, object], new: Dict[str, object]) -> float:
    """Relative machine speed new/old, from the dispatch micro case.

    > 1.0 means the new machine dispatches faster. Falls back to 1.0
    when either report lacks the index case.
    """
    try:
        old_rate = old["cases"][INDEX_CASE]["events_per_s"]
        new_rate = new["cases"][INDEX_CASE]["events_per_s"]
    except (KeyError, TypeError):
        return 1.0
    if not old_rate or not new_rate:
        return 1.0
    return float(new_rate) / float(old_rate)


def compare_reports(
    old: Dict[str, object], new: Dict[str, object]
) -> List[Dict[str, object]]:
    """Per-case deltas for cases present (with equal kwargs) in both.

    ``speedup`` is raw old/new wall; ``norm_speedup`` divides out the
    hardware index (a machine running dispatch 2x slower halves every
    raw speedup for equal code, so dividing by the index restores
    ~1.0x), letting two reports from different machines compare code
    speed rather than CPU speed.
    """
    index = hardware_index(old, new)
    rows: List[Dict[str, object]] = []
    for name in sorted(set(old.get("cases", {})) & set(new.get("cases", {}))):
        old_case = old["cases"][name]
        new_case = new["cases"][name]
        if old_case.get("kwargs") != new_case.get("kwargs"):
            continue
        old_wall = float(old_case["wall_s"])
        new_wall = float(new_case["wall_s"])
        speedup = old_wall / new_wall if new_wall > 0 else float("inf")
        rows.append(
            {
                "case": name,
                "old_wall_s": old_wall,
                "new_wall_s": new_wall,
                "speedup": speedup,
                "norm_speedup": speedup / index if index > 0 else speedup,
                "old_events_per_s": old_case.get("events_per_s"),
                "new_events_per_s": new_case.get("events_per_s"),
            }
        )
    return rows


def render_comparison(rows: List[Dict[str, object]], index: float) -> str:
    """The --compare delta table as aligned monospace text."""
    lines = [
        f"hardware index (new/old dispatch rate): {index:.3f}",
        f"{'case':<32} {'old wall':>10} {'new wall':>10} {'speedup':>8} "
        f"{'norm':>8}  events/s old -> new",
    ]
    for row in rows:
        old_eps = row["old_events_per_s"]
        new_eps = row["new_events_per_s"]
        eps = (
            f"{old_eps:,.0f} -> {new_eps:,.0f}"
            if old_eps and new_eps
            else "-"
        )
        lines.append(
            f"{row['case']:<32} {row['old_wall_s']:>9.3f}s {row['new_wall_s']:>9.3f}s "
            f"{row['speedup']:>7.2f}x {row['norm_speedup']:>7.2f}x  {eps}"
        )
    return "\n".join(lines)


def regressions(
    rows: List[Dict[str, object]], tolerance: float
) -> List[Dict[str, object]]:
    """Rows whose normalised slowdown exceeds ``tolerance`` (e.g. 0.30)."""
    floor = 1.0 / (1.0 + tolerance)
    return [row for row in rows if row["norm_speedup"] < floor]

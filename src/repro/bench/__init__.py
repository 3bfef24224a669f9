"""Declared benchmark suite: the repo's measured performance trajectory.

``python -m repro.bench`` runs one declared suite of eleven cases —
engine dispatch micro-benchmarks, result-store throughput, telemetry
overhead, a short paper figure, short event-tier meshgen runs and the
100-node meshgen pair that shows the slotted tier's speed-up — and
emits a sorted-keys JSON report (wall seconds and events/s per case).
A report committed as ``BENCH_<tag>.json`` is the baseline that
``--compare old.json`` renders a delta table against, so speed is a
regression-tested property of the repo rather than a claim in a commit
message.

Every round of every case is bracketed by two runs of the calibration
probe (:mod:`repro.bench.probe`), a pure-Python loop that imports
nothing from ``repro``. A case records its best round's wall time and
the mean probe time of that round, and a comparison divides each case
by its own probe ratio: a slower or busier machine slows the probe as
much as the case and cancels out, while a slower program does not.

Case names are stable identifiers; a case is only comparable across two
reports of the same schema when both its name and its kwargs match.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.micro import MICRO_CASES
from repro.bench.probe import probe_s
from repro.bench.storecase import STORE_CASES
from repro.bench.telemetrycase import TELEMETRY_CASES

#: Every function-backed case (kind "micro"): engine micro-benchmarks
#: plus the result-store throughput and telemetry overhead cases.
FUNCTION_CASES = {**MICRO_CASES, **STORE_CASES, **TELEMETRY_CASES}

SCHEMA = "repro.bench/2"


@dataclass(frozen=True)
class BenchCase:
    """One declared benchmark case.

    ``kind`` is ``micro`` (a function from :data:`FUNCTION_CASES`) or
    ``scenario`` (an experiment id from the scenario catalogue run with
    explicit kwargs). The case runs ``repeat`` rounds and keeps the
    fastest.
    """

    name: str
    kind: str  # "micro" | "scenario"
    target: str  # function case name or scenario spec id
    kwargs: Tuple[Tuple[str, object], ...] = ()
    repeat: int = 3

    @property
    def kwargs_dict(self) -> Dict[str, object]:
        return dict(self.kwargs)


def _kw(**kwargs) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted(kwargs.items()))


def build_suite() -> List[BenchCase]:
    """The declared suite, in execution order."""
    # Function cases run with the kwargs they are registered with. The
    # telemetry overhead case (meshgen.n49, whose < 5 % budget CI
    # checks) takes the best of 3 detached and 3 attached runs itself,
    # so it runs one round here.
    cases = []
    for name, (_, kwargs) in FUNCTION_CASES.items():
        rounds = 1 if name in TELEMETRY_CASES else 3
        cases.append(BenchCase(name, "micro", name, _kw(**kwargs), repeat=rounds))
    cases.append(
        BenchCase(
            "figure.fig1.short",
            "scenario",
            "fig1",
            _kw(duration_s=60.0, warmup_s=10.0),
        )
    )
    for nodes in (16, 49):
        cases.append(
            BenchCase(
                f"meshgen.quick.n{nodes}",
                "scenario",
                "meshgen",
                _kw(nodes=nodes, density=1.5, duration_s=8.0, warmup_s=2.0),
            )
        )
    # Dynamic link state: Gilbert-Elliott loss on every link plus a
    # churn/mobility schedule (down, move, up), so plan invalidation and
    # BFS re-routing are part of the measured trajectory.
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
        )
    )
    # One 100-node mesh on both engine tiers: the pair's wall ratio is
    # the slotted tier's speed-up. Density 1.5 keeps ~4.7 expected
    # neighbours, below the connectivity threshold (~ln n) at 100
    # nodes, so this point runs at density 2.5.
    cases.append(
        BenchCase("meshgen.n100", "scenario", "meshgen", _kw(nodes=100, density=2.5))
    )
    cases.append(
        BenchCase(
            "meshgen.slotted.n100",
            "scenario",
            "meshgen",
            _kw(nodes=100, density=2.5, fidelity="slotted"),
        )
    )
    return cases


def run_case(case: BenchCase) -> Dict[str, object]:
    """Execute one case; returns its report entry.

    A probe runs before the first round and after every round, so two
    probes bracket each one; the entry keeps the fastest round's wall
    time and the mean of that round's two probe times. Measurement
    hygiene: before every probe, the shared testbed-run memoisation
    cache and the held meshgen layout are dropped and a full garbage
    collection runs, so neither a probe nor a round pays for what an
    earlier round left behind, and a case's wall time does not depend
    on which cases or rounds ran before it.
    """
    from repro.experiments import testbedlab
    from repro.topology import meshgen

    def settled_probe() -> float:
        testbedlab.clear_cache()
        meshgen.clear_cache()
        gc.collect()
        return probe_s()

    best = None
    probe = settled_probe()
    for _ in range(max(1, case.repeat)):
        wall, events = _timed_round(case)
        before, probe = probe, settled_probe()
        if best is None or wall < best[0]:
            best = (wall, (before + probe) / 2.0, events)
    wall, probe, events = best
    return {
        "kind": case.kind,
        "kwargs": case.kwargs_dict,
        "wall_s": round(wall, 6),
        "probe_s": round(probe, 6),
        "events": events,
        "events_per_s": round(events / wall, 1) if events else None,
    }


def _timed_round(case: BenchCase) -> Tuple[float, Optional[int]]:
    """Wall seconds and engine events of one round of ``case``.

    A scenario's result is dropped when this returns, before the probe
    that closes the round, so no round holds the one before it alive.
    """
    if case.kind == "micro":
        fn, _defaults = FUNCTION_CASES[case.target]
        started = time.perf_counter()
        events = fn(**case.kwargs_dict).get("events")
    else:
        from repro.experiments.specs import get_spec

        spec = get_spec(case.target)
        started = time.perf_counter()
        events = spec.run(**case.kwargs_dict).runtime.get("events")
    wall = time.perf_counter() - started
    return wall, int(events) if events else None


def run_suite(
    progress: Optional[Callable[[str, Dict[str, object]], None]] = None,
) -> Dict[str, object]:
    """Run the declared suite and return the report dict."""
    report: Dict[str, object] = {"schema": SCHEMA, "cases": {}}
    for case in build_suite():
        entry = run_case(case)
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
    """Read a report JSON; a report of another schema is a ValueError."""
    with open(path) as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path} is a {report.get('schema')!r} report, not {SCHEMA!r}"
        )
    return report


def compare_reports(
    old: Dict[str, object], new: Dict[str, object]
) -> List[Dict[str, object]]:
    """Per-case deltas for cases present (with equal kwargs) in both.

    ``speedup`` is raw old/new wall. ``probe_ratio`` is the case's
    old/new probe time: how much faster the machine ran the probe next
    to the new measurement. ``norm_speedup`` divides it out, so a
    machine that runs everything twice as slow compares at 1.0x while a
    program that got slower than the probe does not.
    """
    rows: List[Dict[str, object]] = []
    for name in sorted(set(old["cases"]) & set(new["cases"])):
        old_case = old["cases"][name]
        new_case = new["cases"][name]
        if old_case["kwargs"] != new_case["kwargs"]:
            continue
        speedup = old_case["wall_s"] / new_case["wall_s"]
        probe_ratio = old_case["probe_s"] / new_case["probe_s"]
        rows.append(
            {
                "case": name,
                "old_wall_s": old_case["wall_s"],
                "new_wall_s": new_case["wall_s"],
                "speedup": speedup,
                "probe_ratio": probe_ratio,
                "norm_speedup": speedup / probe_ratio,
                "old_events_per_s": old_case["events_per_s"],
                "new_events_per_s": new_case["events_per_s"],
            }
        )
    return rows


def render_comparison(rows: List[Dict[str, object]]) -> str:
    """The --compare delta table as aligned monospace text."""
    lines = [
        f"{'case':<32} {'old wall':>10} {'new wall':>10} {'speedup':>8} "
        f"{'probe':>7} {'norm':>8}  events/s old -> new",
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
            f"{row['speedup']:>7.2f}x {row['probe_ratio']:>6.2f}x "
            f"{row['norm_speedup']:>7.2f}x  {eps}"
        )
    return "\n".join(lines)


def regressions(
    rows: List[Dict[str, object]], tolerance: float
) -> List[Dict[str, object]]:
    """Rows whose normalised slowdown exceeds ``tolerance`` (e.g. 0.30)."""
    floor = 1.0 / (1.0 + tolerance)
    return [row for row in rows if row["norm_speedup"] < floor]

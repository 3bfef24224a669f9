"""CLI: regenerate paper tables/figures, run sweeps, compare algorithms.

Subcommands::

    list [--json]             catalogue of scenarios and their parameters
    run <ids...|all>          run one, several, or all experiments
    sweep <id> --grid k=v,..  cartesian parameter-grid sweep of one scenario
    compare <id|dir>          cross-run delta table vs. a baseline variant
    validate-fidelity         event-vs-slotted engine-tier agreement report

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig1
    python -m repro.experiments run all --jobs 4 --out results/
    python -m repro.experiments run table2 --duration 1800
    python -m repro.experiments sweep loadsweep --grid hops=2,3,4 \\
        --grid seed=1,2,3 --jobs 4 --out results/
    python -m repro.experiments sweep stability --grid cw=8,8,8,8;16,16,16,16 \\
        --replicates 3 --base-seed 9
    python -m repro.experiments sweep meshgen --set nodes=16,25 \\
        --set algorithm=none,ezflow,diffq --jobs 2 --out results/meshgen
    python -m repro.experiments compare meshgen --set nodes=16 \\
        --set algorithm=none,ezflow,diffq --baseline algorithm=none --jobs 2
    python -m repro.experiments compare results/meshgen   # previously exported

``sweep`` accepts ``--set`` as an alias of ``--grid``; scenarios may
declare default sweep axes (meshgen expands over every topology kind
unless ``--set topology=...`` pins one).

``compare`` renders the algorithm-delta table (goodput/fairness/delivery
vs. ``--baseline algorithm=none`` by default) either from a live sweep
(first argument is a scenario id) or from a previously exported ``--out``
directory (first argument is a directory). The table is byte-identical
in both modes and at any ``--jobs`` count. These subcommands are thin
shells over the stable programmatic API in :mod:`repro.results`
(``Study`` / ``ResultSet`` / ``compare``).

``validate-fidelity`` sweeps the cross-tier matrix (topologies x
algorithms x both engine tiers) — or loads a previously exported one —
pairs each event run with its slotted twin, and checks the headline
metric deltas against the calibrated tolerances in
:mod:`repro.results.validation`. Exit status 1 means at least one
tolerance was violated (the CI ``fidelity-smoke`` job gates on this).

Legacy spelling (``python -m repro.experiments fig1 --seed 2``) still
works: a first argument that is not a subcommand is treated as ``run``.

``run ... --jobs N`` fans independent experiments out over N worker
processes; ``--jobs 0`` uses every available core. Results are printed
— and exported with ``--out`` — in deterministic order, byte-identical
whatever N is. ``--out DIR`` writes per-run ``result.json`` + series
CSVs + ``tables.md``, a ``manifest.json``, and an ``EXPERIMENTS.md``
index rendering every table and series.

Option values are validated against each scenario's declared parameter
schema before anything runs: a typo'd or unsupported option is reported
as such (exit 2), and genuine errors inside an experiment propagate as
themselves instead of being mislabelled "unknown option".

``run`` and ``sweep`` execute fault-tolerantly on request:
``--on-error continue`` records failing runs as typed failure records
(exported as ``failures.json``, checkpointed into ``--store``) instead
of aborting, ``--on-error retry:N`` retries with capped exponential
backoff first, and ``--run-timeout SECONDS`` kills any single run
exceeding that wall time. ``--fault-plan`` injects deterministic chaos
for testing (see :mod:`repro.experiments.faults`).

Exit codes: 0 success; 1 a run timed out or crashed its worker under
``--on-error fail``; 2 invalid CLI input; 4 the batch completed under
``--on-error continue`` but some runs failed; 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.experiments.faults import FaultPlan
from repro.experiments.runner import (
    ErrorPolicy,
    RunRecord,
    RunTimeoutError,
    WorkerCrashError,
    catalogue_requests,
    request_for,
)
from repro.experiments.specs import (
    ParameterValueError,
    ScenarioSpec,
    UnknownExperimentError,
    UnknownParameterError,
    catalogue,
    get_spec,
    spec_ids,
    SPECS,
)
from repro.results import (
    ComparisonError,
    ResultLoadError,
    ResultSet,
    Study,
    compare,
    execute_requests,
    open_store,
    render_compare,
)

SUBCOMMANDS = ("run", "sweep", "list", "compare", "validate-fidelity")


def _add_jobs_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = all available cores; default 1)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="export results (JSON/CSV/markdown + EXPERIMENTS.md) to DIR",
    )


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="URL",
        help="checkpoint runs into a sqlite result store, named "
        "sqlite:PATH, and skip runs already present; an interrupted sweep "
        "re-issued against the same store resumes instead of restarting "
        "(add --out DIR for an export tree)",
    )


def _add_fault_opts(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--on-error",
        default="fail",
        metavar="POLICY",
        help="what a failing run does to the batch: 'fail' aborts "
        "(default), 'continue' records a typed failure and keeps going "
        "(exit 4, failures.json exported), 'retry:N' retries with capped "
        "exponential backoff first",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill any single run exceeding this wall time (counts as a "
        "failure under the --on-error policy)",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="inject deterministic faults into chosen runs, e.g. "
        "'2=raise+5=crash+8=hang:60' (testing/CI; see "
        "repro.experiments.faults)",
    )


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument(
        "--duration", type=float, default=None, help="run duration in seconds"
    )
    parser.add_argument(
        "--time-scale",
        type=float,
        default=None,
        help="schedule compression for scenario experiments (1.0 = paper)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="assignments",
        help="set any declared parameter (repeatable), e.g. --set hops=6",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the EZ-flow paper's tables/figures and run sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one, several, or all experiments")
    run.add_argument(
        "experiments",
        nargs="+",
        metavar="ID",
        help=f"experiment ids or 'all'; known: {', '.join(spec_ids())}",
    )
    _add_overrides(run)
    _add_jobs_out(run)
    _add_store(run)
    _add_fault_opts(run)

    sweep = sub.add_parser("sweep", help="parameter-grid sweep of one scenario")
    sweep.add_argument("experiment", metavar="ID", help="scenario id to sweep")
    sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        dest="grid_axes",
        help="one grid axis (repeatable); ';' separates sequence values",
    )
    sweep.add_argument(
        "--set",
        action="append",
        metavar="KEY=V1,V2,...",
        dest="grid_axes",
        help="alias of --grid (matches the run subcommand's spelling)",
    )
    sweep.add_argument(
        "--replicates", type=int, default=1, help="runs per grid point (default 1)"
    )
    sweep.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="derive a distinct seed per run from this base",
    )
    sweep.add_argument(
        "--live",
        action="store_true",
        help="render an in-place live progress table on stderr "
        "(replaces the per-run completion lines)",
    )
    sweep.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="record telemetry events to per-run JSONL sidecars under DIR",
    )
    sweep.add_argument(
        "--telemetry-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="telemetry sampling interval in simulated seconds (default 1.0)",
    )
    _add_jobs_out(sweep)
    _add_store(sweep)
    _add_fault_opts(sweep)

    cmp = sub.add_parser(
        "compare", help="cross-run delta table vs. a baseline variant"
    )
    cmp.add_argument(
        "target",
        metavar="ID|DIR",
        help="scenario id to sweep live, or an exported --out directory to load",
    )
    cmp.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        dest="grid_axes",
        help="one grid axis for a live sweep (repeatable)",
    )
    cmp.add_argument(
        "--set",
        action="append",
        metavar="KEY=V1,V2,...",
        dest="grid_axes",
        help="alias of --grid",
    )
    cmp.add_argument(
        "--baseline",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="baseline variant filter (repeatable; default algorithm=none)",
    )
    cmp.add_argument(
        "--metrics",
        default=None,
        metavar="M1,M2,...",
        help="scalar metrics to compare (default: goodput/fairness/delivery)",
    )
    cmp.add_argument(
        "--align",
        default=None,
        metavar="K1,K2,...",
        help="parameters identifying an aligned layout "
        "(default: every varying non-baseline parameter)",
    )
    cmp.add_argument(
        "--replicates",
        type=int,
        default=1,
        help="seed-axis size: every grid point runs the same derived "
        "seed set, so replicate k aligns across variants (default 1)",
    )
    cmp.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="base for the derived seed axis (default: the scenario's "
        "declared default seed)",
    )
    _add_jobs_out(cmp)
    _add_store(cmp)

    validate = sub.add_parser(
        "validate-fidelity",
        help="event-vs-slotted engine-tier agreement report",
    )
    validate.add_argument(
        "--from",
        dest="load_dir",
        default=None,
        metavar="DIR",
        help="validate a previously exported sweep instead of running one",
    )
    validate.add_argument(
        "--topologies",
        default="mesh,grid",
        metavar="T1,T2,...",
        help="topology kinds for the live matrix (default mesh,grid)",
    )
    validate.add_argument(
        "--algorithms",
        default="none,ezflow,diffq",
        metavar="A1,A2,...",
        help="algorithms for the live matrix (default none,ezflow,diffq)",
    )
    validate.add_argument(
        "--nodes", type=int, default=16, help="node count (default 16)"
    )
    validate.add_argument(
        "--duration", type=float, default=30.0, help="run duration in seconds"
    )
    validate.add_argument("--seed", type=int, default=11, help="master RNG seed")
    validate.add_argument(
        "--static-only",
        action="store_true",
        help="skip the dynamic link-state cases (one loss pair, one "
        "churn pair) and validate the static matrix only",
    )
    _add_jobs_out(validate)
    _add_store(validate)

    lst = sub.add_parser("list", help="print the scenario catalogue")
    lst.add_argument(
        "--json",
        action="store_true",
        help="machine-readable catalogue (ids, params, defaults, sweep axes)",
    )
    return parser


def _collect_overrides(args) -> Dict[str, object]:
    """Merge --seed/--duration/--time-scale with --set assignments."""
    overrides: Dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.time_scale is not None:
        overrides["time_scale"] = args.time_scale
    for assignment in args.assignments:
        key, sep, value = assignment.partition("=")
        if not sep or not key:
            raise ParameterValueError(f"--set expects KEY=VALUE, got {assignment!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def _parse_grid(axes: List[str], spec: ScenarioSpec) -> Dict[str, List[str]]:
    """Parse repeated ``--grid key=v1,v2`` options into a grid mapping.

    Scalar-kind axes split on ','. Sequence-kind parameters (e.g.
    ``cw``) split on ';' so each value can itself contain commas:
    ``--grid cw=8,8,8,8`` is ONE four-element value and
    ``--grid cw=8,8,8,8;16,16,16,16`` is two grid values.
    """
    grid: Dict[str, List[str]] = {}
    for axis in axes:
        key, sep, values = axis.partition("=")
        if not sep or not key or not values:
            raise ParameterValueError(f"--grid expects KEY=V1,V2,..., got {axis!r}")
        key = key.strip()
        param = spec.param(key)  # unknown axis -> UnknownParameterError
        sep_char = ";" if param.kind in ("ints", "floats") else ","
        grid[key] = [v.strip() for v in values.split(sep_char) if v.strip()]
        if not grid[key]:
            raise ParameterValueError(f"--grid {key}: no values given")
    return grid


def _print_record(record: RunRecord) -> None:
    if record.failure is not None:
        failure = record.failure
        print(
            f"{failure.run_id}: FAILED [{failure.kind}] "
            f"{failure.error}: {failure.message} "
            f"({failure.attempts} attempt(s))"
        )
        print()
        return
    print(record.result.render())
    if record.cached:
        print(f"(cache hit; originally {record.wall_s:.1f} s)")
    else:
        print(f"(wall time {record.wall_s:.1f} s)")
    print()


def _fault_options(args):
    """Parse --on-error/--run-timeout/--fault-plan into runner inputs."""
    try:
        policy = ErrorPolicy.parse(getattr(args, "on_error", "fail"))
    except ValueError as error:
        raise ParameterValueError(str(error)) from None
    run_timeout = getattr(args, "run_timeout", None)
    if run_timeout is not None and run_timeout <= 0:
        raise ParameterValueError("--run-timeout must be positive")
    plan_spec = getattr(args, "fault_plan", None)
    faults = FaultPlan.parse(plan_spec) if plan_spec else None
    return policy, run_timeout, faults


def _report_failures(results: ResultSet) -> None:
    """Summarise a fault-tolerant batch's failures on stderr."""
    if not results.failures:
        return
    print(
        f"{len(results.failures)} run(s) failed "
        f"({len(results)} survived):",
        file=sys.stderr,
    )
    for failure in results.failures:
        print(
            f"  {failure.run_id}: [{failure.kind}] {failure.error}: "
            f"{failure.message} ({failure.attempts} attempt(s))",
            file=sys.stderr,
        )


def _run_batch(
    requests,
    jobs: int,
    out: Optional[str],
    store_path: Optional[str] = None,
    on_error=None,
    run_timeout: Optional[float] = None,
    faults=None,
    live: bool = False,
    telemetry_dir: Optional[str] = None,
    telemetry_interval: float = 1.0,
) -> ResultSet:
    # Every input is checked before the store or the telemetry
    # directory is created, so an input error leaves nothing behind.
    if jobs < 0:
        raise ParameterValueError("--jobs must be >= 0 (0 = all available cores)")
    observed = live or telemetry_dir is not None
    if observed and telemetry_interval <= 0:
        raise ParameterValueError("--telemetry-interval must be positive")
    hits = [0]
    store = hub = recorder = table = None

    def on_record(record: RunRecord) -> None:
        hits[0] += record.cached
        # The live table renders progress in place; interleaving the
        # per-run completion lines would shred it.
        if table is None:
            _print_record(record)

    try:
        store = open_store(store_path) if store_path else None
        if observed:
            from repro.telemetry import LiveTable, TelemetryHub, TelemetryRecorder

            hub = TelemetryHub(sample_interval_s=telemetry_interval)
            if telemetry_dir is not None:
                recorder = hub.subscribe(TelemetryRecorder(telemetry_dir))
            if live:
                table = hub.subscribe(LiveTable(len(requests)))
        results = execute_requests(
            requests,
            jobs=jobs,
            on_record=on_record,
            store=store,
            on_error=on_error,
            run_timeout=run_timeout,
            faults=faults,
            telemetry=hub,
        )
        if store is not None:
            print(
                f"store {store_path}: {hits[0]} cache hit(s), "
                f"{len(results) + len(results.failures) - hits[0]} executed",
                file=sys.stderr,
            )
    finally:
        if table is not None:
            table.finish()
        if recorder is not None:
            recorder.close()
            print(f"telemetry recorded under {telemetry_dir}", file=sys.stderr)
        if store is not None:
            store.close()
    if out is not None:
        results.save(out)
        print(f"exported {len(results)} run(s) to {out}", file=sys.stderr)
    _report_failures(results)
    return results


def cmd_list(args) -> int:
    if args.json:
        json.dump(catalogue(), sys.stdout, sort_keys=True, indent=2)
        print()
        return 0
    for spec in SPECS:
        aliases = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"{spec.id}: {spec.description}{aliases}")
        for param in spec.params:
            help_text = f"  — {param.help}" if param.help else ""
            print(f"    {param.name} ({param.kind}, default {param.default!r}){help_text}")
        for name, values in spec.sweep_defaults:
            rendered = ",".join(str(v) for v in values)
            print(f"    [sweep default axis] {name}={rendered}")
    return 0


def cmd_run(args) -> int:
    overrides = _collect_overrides(args)
    ids = list(args.experiments)
    if "all" in ids:
        ids = spec_ids(include_aliases=False)
        requests, warnings = catalogue_requests(ids, overrides, strict=False)
        for warning in warnings:
            print(warning, file=sys.stderr)
    else:
        requests = [
            request_for(get_spec(experiment_id).id, overrides) for experiment_id in ids
        ]
        # Collapse figure aliases so e.g. 'fig6 fig7' runs the shared
        # harness once; dedup keeps first occurrence order.
        seen = set()
        requests = [
            r for r in requests if not (r.run_id in seen or seen.add(r.run_id))
        ]
    policy, run_timeout, faults = _fault_options(args)
    results = _run_batch(
        requests,
        args.jobs,
        args.out,
        store_path=args.store,
        on_error=policy,
        run_timeout=run_timeout,
        faults=faults,
    )
    return 4 if results.failures else 0


def _build_study(spec: ScenarioSpec, args, aligned_seeds: bool = False) -> Study:
    """A Study from parsed CLI axes + replicate options.

    ``sweep`` keeps the legacy replicate semantics (a distinct seed per
    global run index, ``--replicates > 1`` requiring ``--base-seed`` or
    a seed axis). ``compare`` passes ``aligned_seeds=True``: replicates
    become a shared seed *axis* (:meth:`Study.seeds`), because
    per-run-index seeds would give baseline and variant runs different
    layouts and no aligned group would ever pair them.
    """
    study = Study(spec.id)
    for name, values in _parse_grid(args.grid_axes, spec).items():
        study.grid(**{name: list(values)})
    if aligned_seeds:
        if args.replicates < 1:
            raise ParameterValueError("--replicates must be >= 1")
        if args.replicates > 1 or args.base_seed is not None:
            study.seeds(args.replicates, base=args.base_seed)
    else:
        study.replicates(args.replicates, base_seed=args.base_seed)
    return study


def cmd_sweep(args) -> int:
    spec = get_spec(args.experiment)
    # Scenario default axes (e.g. meshgen's topology kinds) expand
    # unless the CLI pinned them — the Study builder applies that rule.
    study = _build_study(spec, args)
    requests = study.requests()
    print(
        f"sweep {spec.id}: {len(requests)} run(s) "
        f"({len(study.axes())} axis/axes, {args.replicates} replicate(s))",
        file=sys.stderr,
    )
    policy, run_timeout, faults = _fault_options(args)
    results = _run_batch(
        requests,
        args.jobs,
        args.out,
        store_path=args.store,
        on_error=policy,
        run_timeout=run_timeout,
        faults=faults,
        live=args.live,
        telemetry_dir=args.telemetry,
        telemetry_interval=args.telemetry_interval,
    )
    return 4 if results.failures else 0


def _parse_baseline(assignments: List[str]) -> Optional[Dict[str, str]]:
    baseline: Dict[str, str] = {}
    for assignment in assignments:
        key, sep, value = assignment.partition("=")
        if not sep or not key:
            raise ParameterValueError(
                f"--baseline expects KEY=VALUE, got {assignment!r}"
            )
        baseline[key.strip()] = value.strip()
    return baseline or None  # None -> the default baseline (algorithm=none)


def cmd_compare(args) -> int:
    if args.jobs < 0:
        raise ParameterValueError("--jobs must be >= 0 (0 = all available cores)")
    baseline = _parse_baseline(args.baseline)
    metrics = (
        [m.strip() for m in args.metrics.split(",") if m.strip()]
        if args.metrics is not None
        else None
    )
    align = (
        [k.strip() for k in args.align.split(",") if k.strip()]
        if args.align is not None
        else None
    )
    # A bare scenario id always means a live sweep, even if a directory
    # of the same name happens to exist; spell directories with a path
    # separator (results/meshgen, ./meshgen) to load an export instead.
    # A file target is a sqlite result store and loads the same way.
    is_spec_id = os.sep not in args.target and args.target in spec_ids()
    if not is_spec_id and (os.path.isdir(args.target) or os.path.isfile(args.target)):
        if args.grid_axes or args.replicates != 1 or args.base_seed is not None:
            raise ParameterValueError(
                "--set/--grid/--replicates/--base-seed only apply to live "
                "sweeps, not directory or store targets"
            )
        if os.path.isfile(args.target):
            with open_store("sqlite:" + args.target) as store:
                results = ResultSet.from_store(store)
                # Materialise within the context: lazy loaders hold the
                # store connection, and rendering needs only scalars
                # anyway, but --out re-exports want full payloads.
                if args.out is not None:
                    for run in results:
                        run.result
            print(
                f"loaded {len(results)} run(s) from store {args.target}",
                file=sys.stderr,
            )
        else:
            results = ResultSet.load(args.target)
            print(f"loaded {len(results)} run(s) from {args.target}", file=sys.stderr)
        if args.out is not None:
            results.save(args.out)
            print(f"exported {len(results)} run(s) to {args.out}", file=sys.stderr)
    else:
        spec = get_spec(args.target)
        requests = _build_study(spec, args, aligned_seeds=True).requests()
        print(f"compare {spec.id}: sweeping {len(requests)} run(s)", file=sys.stderr)

        def progress(record: RunRecord) -> None:
            cached = " [cache hit]" if record.cached else ""
            print(
                f"  {record.request.run_id} ({record.wall_s:.1f} s){cached}",
                file=sys.stderr,
            )

        store = open_store(args.store) if args.store else None
        try:
            results = execute_requests(
                requests, jobs=args.jobs, on_record=progress, store=store
            )
        finally:
            if store is not None:
                store.close()
        if args.out is not None:
            results.save(args.out)
            print(f"exported {len(results)} run(s) to {args.out}", file=sys.stderr)
    try:
        table = compare(results, baseline=baseline, metrics=metrics, align=align)
    except ComparisonError as error:
        print(error, file=sys.stderr)
        return 2
    rendered = render_compare(table)
    print(rendered)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "compare.md"), "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {os.path.join(args.out, 'compare.md')}", file=sys.stderr)
    return 0


def cmd_validate_fidelity(args) -> int:
    from repro.results.validation import (
        DYNAMIC_CASES,
        ValidationError,
        validate_fidelity,
        validation_study,
    )

    if args.jobs < 0:
        raise ParameterValueError("--jobs must be >= 0 (0 = all available cores)")
    if args.load_dir is not None:
        results = ResultSet.load(args.load_dir)
        print(f"loaded {len(results)} run(s) from {args.load_dir}", file=sys.stderr)
    else:
        topologies = [t.strip() for t in args.topologies.split(",") if t.strip()]
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        if not topologies or not algorithms:
            raise ParameterValueError(
                "--topologies and --algorithms each need at least one value"
            )
        dynamic_cases = () if args.static_only else DYNAMIC_CASES
        matrix = (len(topologies) * len(algorithms) + len(dynamic_cases)) * 2
        print(
            f"validate-fidelity: {len(topologies)} topolog(ies) x "
            f"{len(algorithms)} algorithm(s) + {len(dynamic_cases)} dynamic "
            f"case(s), x 2 tiers = {matrix} run(s)",
            file=sys.stderr,
        )
        store = open_store(args.store) if args.store else None
        try:
            results = validation_study(
                topologies=topologies,
                algorithms=algorithms,
                nodes=args.nodes,
                duration_s=args.duration,
                seed=args.seed,
                jobs=args.jobs,
                dynamic_cases=dynamic_cases,
                store=store,
            )
        finally:
            if store is not None:
                store.close()
        if args.out is not None:
            results.save(args.out)
            print(f"exported {len(results)} run(s) to {args.out}", file=sys.stderr)
    try:
        report = validate_fidelity(results)
    except ValidationError as error:
        print(error, file=sys.stderr)
        return 2
    from repro.experiments.export import table_to_markdown

    rendered = table_to_markdown(report.table())
    print(rendered)
    for run_id in report.unpaired:
        print(f"unpaired run (no twin on the other tier): {run_id}", file=sys.stderr)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "validation.md"), "w") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {os.path.join(args.out, 'validation.md')}", file=sys.stderr)
    if not report.ok:
        violations = report.violations
        print(
            f"FIDELITY VALIDATION FAILED: {len(violations)} of "
            f"{len(report.rows)} check(s) outside tolerance",
            file=sys.stderr,
        )
        for row in violations:
            scenario = ",".join(f"{k}={v}" for k, v in row.scenario)
            print(
                f"  {scenario} {row.metric}: event={row.baseline} "
                f"slotted={row.candidate} (Δabs={row.abs_delta:.4f}, "
                f"Δrel={row.rel_delta:.4f}, limit {row.limit})",
                file=sys.stderr,
            )
        return 1
    print(
        f"fidelity validation OK: {len(report.rows)} check(s) over "
        f"{report.pair_count} scenario pair(s)",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy spelling: `python -m repro.experiments fig1 ...` == `run fig1 ...`.
    if argv and argv[0] not in SUBCOMMANDS and not argv[0].startswith("-"):
        argv.insert(0, "run")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "run":
            return cmd_run(args)
        if args.command == "compare":
            return cmd_compare(args)
        if args.command == "validate-fidelity":
            return cmd_validate_fidelity(args)
        return cmd_sweep(args)
    except KeyboardInterrupt:
        # The runner's cleanup path has already terminated the worker
        # pool; exit with the conventional SIGINT status.
        print("interrupted", file=sys.stderr)
        return 130
    except (RunTimeoutError, WorkerCrashError) as error:
        # A timed-out or worker-killing run under --on-error fail: the
        # batch aborted; a store keeps everything completed before it.
        print(error, file=sys.stderr)
        return 1
    except (
        UnknownParameterError,
        ParameterValueError,
        UnknownExperimentError,
        ResultLoadError,
    ) as error:
        # Only CLI-input errors are caught; errors raised inside an
        # experiment harness (including KeyErrors) propagate as-is.
        message = error.args[0] if error.args else error
        print(message, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Export experiment results to files (CSV series + markdown tables).

A reproduction is most useful when its figure data can be replotted:
``export_result`` writes every series of an
:class:`~repro.experiments.common.ExperimentResult` as a two-column CSV
and every table as GitHub-flavoured markdown, under a directory named
after the experiment.

To run an experiment *and* export it, use the package CLI::

    python -m repro.experiments run fig1 --out results/
"""

from __future__ import annotations

import csv
import json
import os
from typing import Iterable, List, Optional

from repro.experiments.common import ExperimentResult, Table, sparkline


def table_to_markdown(table: Table) -> str:
    """Render a result table as GitHub-flavoured markdown."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    lines = [f"### {table.title}", ""]
    lines.append("| " + " | ".join(table.columns) + " |")
    lines.append("|" + "|".join("---" for _ in table.columns) + "|")
    for row in table.rows:
        lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
    return "\n".join(lines)


def export_json(result: ExperimentResult, path: str) -> None:
    """Write one result as deterministic JSON (sorted keys, no timing).

    Serialises through :func:`repro.results.canonical_result_dict` —
    the same document the sweep service returns over HTTP — so exported
    bytes and served bytes come from one code path. (The JSON round
    trip inside ``canonical_result_dict`` is byte-neutral here: sorted
    keys make ordering moot and tuples render as lists either way.)
    """
    from repro.results.types import canonical_result_dict

    with open(path, "w") as handle:
        json.dump(canonical_result_dict(result), handle, sort_keys=True, indent=2)
        handle.write("\n")


def export_result(
    result: ExperimentResult, out_dir: str, dir_name: Optional[str] = None
) -> str:
    """Write series (CSV), tables (markdown) and JSON of one result.

    Files land under ``out_dir/dir_name`` (default: the experiment id;
    sweeps pass the run id so grid points do not overwrite each other).
    Returns the directory the files were written into. Nothing written
    here may depend on wall-clock time: parallel and serial sweeps must
    export byte-identical artefacts.
    """
    target = os.path.join(out_dir, dir_name or result.experiment)
    os.makedirs(target, exist_ok=True)
    export_json(result, os.path.join(target, "result.json"))

    for name, points in result.series.items():
        safe = name.replace("/", "_")
        with open(os.path.join(target, f"{safe}.csv"), "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "y"])
            writer.writerows(points)

    sections = [f"# {result.experiment}: {result.description}", ""]
    if result.parameters:
        params = ", ".join(f"{k}={v}" for k, v in sorted(result.parameters.items()))
        sections.append(f"Parameters: {params}")
        sections.append("")
    for table in result.tables:
        sections.append(table_to_markdown(table))
        sections.append("")
    for note in result.notes:
        sections.append(f"> {note}")
    with open(os.path.join(target, "tables.md"), "w") as handle:
        handle.write("\n".join(sections) + "\n")
    return target


def result_to_markdown(result: ExperimentResult, heading: str) -> str:
    """Markdown section for one result: parameters, tables, series, notes."""
    lines = [f"## {heading}", "", result.description, ""]
    if result.parameters:
        params = ", ".join(f"`{k}={v}`" for k, v in sorted(result.parameters.items()))
        lines.append(f"Parameters: {params}")
        lines.append("")
    for table in result.tables:
        lines.append(table_to_markdown(table))
        lines.append("")
    for name, points in result.series.items():
        lines.append(f"- series `{name}`: {len(points)} points {sparkline(points)}")
    if result.series:
        lines.append("")
    for note in result.notes:
        lines.append(f"> {note}")
    if result.notes:
        lines.append("")
    return "\n".join(lines)


def export_records(records: Iterable, out_dir: str) -> List[str]:
    """Export a batch of sweep records: per-run artefacts + manifest + index.

    ``records`` are :class:`~repro.experiments.runner.RunRecord`s (typed
    loosely to keep this module import-light). Writes, deterministically:

    * ``<out>/<run_id>/`` — ``result.json``, ``tables.md``, series CSVs,
    * ``<out>/manifest.json`` — run ids, spec ids and parameters, plus a
      ``timing`` section (per-run wall seconds, engine event counts and
      events/s, and batch totals),
    * ``<out>/EXPERIMENTS.md`` — every result rendered to markdown.

    The per-run artefacts and the index never contain timestamps or wall
    times — they are byte-identical whatever the worker count or machine
    speed. Timing lives *only* in the manifest's ``timing`` key, so
    comparing two sweeps for determinism means comparing everything else
    byte-for-byte and the manifest with ``timing`` removed (see
    ``tests/test_runner.py`` and the CI meshgen smoke job).
    """
    # Failure records (fault-tolerant sweeps) have no result payload to
    # export and never enter the manifest; export_failures writes them.
    records = [r for r in records if getattr(r, "failure", None) is None]
    targets = []
    timing = {"runs": {}}
    total_wall = 0.0
    total_events = 0.0
    manifest = {
        "experiments": sorted({r.request.spec_id for r in records}),
        "runs": [],
        "timing": timing,
    }
    sections = [
        "# Experiment results",
        "",
        "Generated by `python -m repro.experiments` (see `--out`). "
        "Each section mirrors one run directory; series CSVs and "
        "`result.json` live next to the `tables.md` referenced here.",
        "",
    ]
    for record in records:
        targets.append(export_result(record.result, out_dir, record.request.run_id))
        manifest["runs"].append(
            {
                "run_id": record.request.run_id,
                "experiment": record.request.spec_id,
                "kwargs": record.request.kwargs_dict,
                "parameters": dict(record.result.parameters),
            }
        )
        events = record.result.runtime.get("events")
        wall_s = round(record.wall_s, 6)
        timing["runs"][record.request.run_id] = {
            "wall_s": wall_s,
            "events": None if events is None else int(events),
            "events_per_s": (
                None
                if not events or record.wall_s <= 0
                else round(events / record.wall_s, 1)
            ),
        }
        total_wall += record.wall_s
        total_events += events or 0.0
        sections.append(result_to_markdown(record.result, record.request.run_id))
    timing["total_wall_s"] = round(total_wall, 6)
    timing["total_events"] = int(total_events)
    with open(os.path.join(out_dir, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, sort_keys=True, indent=2)
        handle.write("\n")
    with open(os.path.join(out_dir, "EXPERIMENTS.md"), "w") as handle:
        handle.write("\n".join(sections).rstrip() + "\n")
    return targets


def export_failures(failures: Iterable, out_dir: str) -> Optional[str]:
    """Write a batch's failure records as ``<out>/failures.json``.

    ``failures`` are :class:`~repro.experiments.runner.RunFailure`\\ s
    (typed loosely, like :func:`export_records`). The file is
    deterministic — records sorted by run id, wall seconds omitted (see
    ``RunFailure.to_dict``) — so it is byte-identical at any ``--jobs``
    count. With no failures, a stale ``failures.json`` from an earlier
    partial sweep is *removed*: a resumed-then-completed export tree is
    byte-identical to an uninterrupted one. Returns the file path, or
    None when nothing was written.
    """
    path = os.path.join(out_dir, "failures.json")
    failures = sorted(failures, key=lambda f: f.run_id)
    if not failures:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        return None
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(
            {"failures": [failure.to_dict() for failure in failures]},
            handle,
            sort_keys=True,
            indent=2,
        )
        handle.write("\n")
    return path


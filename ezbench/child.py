"""The program side of the benchmark: what runs inside each launched process.

``run.py`` starts this file as a fresh interpreter, pinned to its own
CPU, with one role and a JSON config::

    python ezbench/child.py paper   '{"requests": [...], "ready_only": false}'
    python ezbench/child.py mesh    '{"groups": [...], "store": "...", ...}'
    python ezbench/child.py checks  '{"out": "...", "accuracy": [...]}'
    python ezbench/child.py service --store sqlite:... --port 0 --jobs 1

It prints ``READY <json>`` once the program is set up (imports done;
for ``mesh`` also the store opened and the pool worker started) and
``RESULT <json>`` when its work is done. Everything the program sees
comes from the config ``run.py`` generated from the seed.

The program is driven only through public entry points: the scenario
catalogue and ``execute_requests`` (the ``run all`` path), ``Study``,
``SweepRunner``, ``open_store`` and ``compare``, the export path, and
the service's ``main``. Calibration probes run here, between measured
operations, while the program is idle.

When ``EZBENCH_TRACE_DIR`` is set, the tracing wrappers are installed
at import time. A pool worker is traced too: a forked one inherits the
wrappers (the tracer restarts its sampler after the fork), and a
spawned one re-runs this module's top level as ``__mp_main__``.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from probe import Calibrator  # noqa: E402
from proc import PAPER_VALUE_IDS, digest_of, stream_errors  # noqa: E402

if os.environ.get("EZBENCH_TRACE_DIR"):
    import tracing  # noqa: E402

    tracing.install(os.environ["EZBENCH_TRACE_DIR"])


def stop_tracing() -> None:
    if os.environ.get("EZBENCH_TRACE_DIR"):
        tracing.dump()


def emit(tag: str, payload: object) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- paper: the nine harnesses through the `run all` path -----------------

#: Table columns that hold the paper's reported value and ours.
PAPER_COLUMNS = (("paper_mean", "measured_mean"), ("paper_kbps", "measured_kbps"))


def paper_rows(results):
    """(paper, measured) pairs of every table row with a paper value."""
    pairs = []
    for run_id, result in results:
        if run_id not in PAPER_VALUE_IDS:
            continue
        for table in result.tables:
            for paper_col, measured_col in PAPER_COLUMNS:
                if paper_col not in table.columns:
                    continue
                papers = table.column(paper_col)
                measured = table.column(measured_col)
                for paper, value in zip(papers, measured):
                    # fig4 marks relays the paper does not report with 0.
                    if paper_col == "paper_mean" and paper == 0.0:
                        continue
                    pairs.append((float(paper), float(value)))
    return pairs


def relative_error(paper: float, measured: float) -> float:
    scale = max(abs(paper), abs(measured))
    return 0.0 if scale == 0.0 else abs(measured - paper) / scale


def run_paper(config) -> None:
    from repro.experiments.runner import request_for
    from repro.experiments.specs import get_spec
    from repro.results import canonical_result_dict, execute_requests

    for spec_id, _ in config["requests"]:
        get_spec(spec_id).resolve()  # harness imports are set-up, as in `run all`
    emit("READY", {})
    if config.get("ready_only"):
        return
    requests = [
        request_for(spec_id, kwargs, run_id=spec_id)
        for spec_id, kwargs in config["requests"]
    ]
    calibrator = Calibrator()
    harnesses = []
    records = []

    def on_record(record) -> None:
        calibrator.probe()
        harnesses.append([record.wall_s, calibrator.bracket_index()])
        records.append(record)

    calibrator.probe()
    error = None
    try:
        execute_requests(requests, jobs=1, on_record=on_record)
    except Exception as exc:  # a failed harness is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    peak_rss_mb = self_peak_rss_mb()
    cached, misses = resubmit(records, config, calibrator)
    results = [(record.request.run_id, record.result) for record in records]
    pairs = paper_rows(results)
    emit(
        "RESULT",
        {
            "attempted": len(requests) * (1 + config["resubmissions"]),
            "failed": len(requests) - len(records) + misses,
            "error": error,
            "harnesses": harnesses,
            "cached": cached,
            "digest": digest_of(canonical_result_dict(r) for _, r in results),
            "paper_rows": len(pairs),
            "paper_rel_err": mean_relative_error(pairs),
            "peak_rss_mb": peak_rss_mb,
        },
    )


def mean_relative_error(pairs):
    if not pairs:
        return None
    return sum(relative_error(p, m) for p, m in pairs) / len(pairs)


def resubmit(records, config, calibrator):
    """Resubmit the pass to a store holding its results, several times.

    This is ``run all --store`` run again: every request is a cache
    hit. Returns ``[raw_s, index]`` per resubmission and the number of
    requests that were not served from the store.
    """
    from repro.results import execute_requests, open_store

    store = open_store("sqlite:" + config["store"])
    for record in records:
        store.put(record)
    requests = [record.request for record in records]
    hits = []
    cached = []
    calibrator.probe()
    for _ in range(config["resubmissions"]):
        gc.collect()  # every resubmission starts from the same collector state
        started = time.perf_counter()
        execute_requests(requests, jobs=1, store=store, on_record=lambda r: hits.append(r.cached))
        raw_s = time.perf_counter() - started
        calibrator.probe()
        cached.append([raw_s, calibrator.bracket_index()])
    store.close()
    return cached, hits.count(False)


# -- mesh: a meshgen sweep into a fresh sqlite store ----------------------


def run_mesh(config) -> None:
    import warnings

    from repro.experiments.runner import SweepRunner, request_for
    from repro.results import (
        ComparisonError,
        ResultSet,
        Study,
        canonical_result_dict,
        compare,
        open_store,
        render_compare,
    )
    from repro.telemetry.hub import TelemetryHub

    timeout = config["run_timeout_s"]
    store = open_store("sqlite:" + config["store"])
    runner = SweepRunner(jobs=1)
    # Start the supervised worker (a run_timeout forces one even at
    # jobs=1, as `sweep --run-timeout` does) with one tiny run.
    warmup = request_for("meshgen", config["warmup"], run_id="warmup")
    spawn_started = time.perf_counter()
    runner.run([warmup], run_timeout=timeout)
    emit("READY", {"spawn_s": time.perf_counter() - spawn_started})
    if config.get("ready_only"):
        runner.close()
        store.close()
        return

    streams = {}  # phase -> (kind, data) events; a resubmission is a new phase
    phase = ["fresh"]

    def listener(event) -> None:
        data = {"run_id": event.run_id, "cached": getattr(event, "cached", None)}
        streams.setdefault(phase[0], []).append((event.kind, data))

    hub = TelemetryHub()
    hub.subscribe(listener)
    calibrator = Calibrator()
    studies = [Study("meshgen").set(**g["set"]).grid(**g["grid"]) for g in config["groups"]]
    records = []
    failures = []

    def submit(study, on_record):
        started = time.perf_counter()
        results = study.run(
            runner=runner,
            store=store,
            on_error="continue",
            run_timeout=timeout,
            telemetry=hub,
            on_record=on_record,
        )
        return results, time.perf_counter() - started

    fresh = []
    clean = []  # Studies without a failed run: only these are resubmitted
    calibrator.probe()
    for study in studies:
        results, raw_s = submit(study, records.append)
        calibrator.probe()
        fresh.append([raw_s, calibrator.bracket_index()])
        failures.extend({"run_id": f.run_id, "attempts": f.attempts} for f in results.failures)
        if not results.failures:
            clean.append(study)
    started = time.perf_counter()
    compare_errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            markdown = render_compare(compare(ResultSet.from_store(store)))
        except ComparisonError as exc:  # a failed compare is a failed operation
            compare_errors.append(str(exc))
            markdown = ""
    raw_s = time.perf_counter() - started
    calibrator.probe()
    compare_part = [raw_s, calibrator.bracket_index()]

    # The whole sweep again, several times: a researcher re-running its
    # Studies against the store gets every run back as a cache hit. A
    # failed run would execute again, a retry, so its Study is left out.
    hits = []
    cached = []
    for round_number in range(config["resubmissions"]):
        phase[0] = round_number
        gc.collect()  # every resubmission starts from the same collector state
        started = time.perf_counter()
        for study in clean:
            submit(study, lambda r: hits.append(r.cached))
        raw_s = time.perf_counter() - started
        calibrator.probe()
        cached.append([raw_s, calibrator.bracket_index()])

    stop_tracing()  # the checks below are the benchmark's, not the workload's
    mismatched = []
    documents = []
    for record in records:
        if record.failure is not None:
            continue
        document = canonical_result_dict(record.result)
        stored = store.get(record.request)
        if stored is None or canonical_result_dict(stored.result) != document:
            mismatched.append(record.request.run_id)
        documents.append(document)
    grammar_errors = [
        error
        for name, events in streams.items()
        for error in stream_errors(events, cached=name != "fresh")
    ]
    runner.close()
    store.close()
    # The supervised lane's worker is gone by now; reap it so its peak
    # counts, then add the largest worker to this process.
    multiprocessing.active_children()
    peak_rss_mb = self_peak_rss_mb() + (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    emit(
        "RESULT",
        {
            "attempted": len(records) + 1 + len(hits),
            "failed": len(failures) + len(mismatched) + len(grammar_errors)
            + hits.count(False) + len(compare_errors),
            "failures": failures,
            "compare_errors": compare_errors,
            "mismatched": mismatched,
            "grammar_errors": grammar_errors,
            "uncached": hits.count(False),
            "fresh": fresh,
            "compare": compare_part,
            "cached": cached,
            "digest": digest_of(documents + [markdown]),
            "peak_rss_mb": peak_rss_mb,
        },
    )


# -- checks: the goldens, and the paper values ----------------------------


def run_checks(config) -> None:
    """Regenerate the pinned golden exports and byte-compare them.

    With ``accuracy`` requests, also run those harnesses and report the
    mean relative error of their rows against the paper's values.
    """
    import filecmp
    import importlib.util

    from repro.experiments.export import export_result
    from repro.experiments.runner import execute_request, request_for

    path = os.path.join(config["repo"], "tests", "make_goldens.py")
    spec = importlib.util.spec_from_file_location("ezbench_make_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    compared = []
    for spec_id, kwargs, dir_name in module.GOLDEN_RUNS:
        golden = os.path.join(module.GOLDEN_DIR, dir_name)
        record = execute_request(request_for(spec_id, kwargs))
        produced = export_result(record.result, config["out"], dir_name)
        names = sorted(os.listdir(golden))
        same = sorted(os.listdir(produced)) == names and all(
            filecmp.cmp(os.path.join(golden, n), os.path.join(produced, n), shallow=False)
            for n in names
        )
        compared.append({"golden": dir_name, "identical": same})
    results = [
        (spec_id, execute_request(request_for(spec_id, kwargs, run_id=spec_id)).result)
        for spec_id, kwargs in config.get("accuracy", [])
    ]
    pairs = paper_rows(results)
    emit(
        "RESULT",
        {"goldens": compared, "paper_rows": len(pairs), "paper_rel_err": mean_relative_error(pairs)},
    )


# -- service: the traced bootstrap around the public main -----------------


def run_service(argv) -> int:
    from repro.service.__main__ import main

    return main(argv)


def main(argv) -> int:
    role = argv[0]
    if role == "service":
        code = run_service(argv[1:])
    else:
        config = json.loads(argv[1])
        {"paper": run_paper, "mesh": run_mesh, "checks": run_checks}[role](config)
        code = 0
    stop_tracing()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The three workloads: inputs made from the seed, and the loops that run them.

Every loop is closed with one client: the next operation starts only
after the previous one finished. Each workload's loop returns an
:class:`Outcome`: attempted and failed operations, a digest of the
canonical outputs, and its end-to-end metrics.

Host times are rescaled by the calibration probe (``probe.py``) taken
right before and right after each measured operation, on the same
pinned CPU, while nothing else of the benchmark runs.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from client import ServiceClient, TripError
from probe import Calibrator
from proc import PAPER_VALUE_IDS, derive_seed, digest_of, stream_errors, tree_peak_rss_mb
from stats import QuantileRefused, median, quantile

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: Seconds any launched program may take to finish its part.
CHILD_TIMEOUT_S = 150.0

#: Rows with a paper value: 6 fig4 means + 8 Table 2 + 12 Table 3 rows.
PAPER_ROWS = 26

#: Fresh launches whose median is ``setup_s``. A mesh launch also forks
#: the worker and runs one tiny meshgen run, so it costs several times more.
SETUP_LAUNCHES = {
    "paper": {"full": 15, "tiny": 1},
    "mesh": {"full": 9, "tiny": 1},
    "service": {"full": 15, "tiny": 1},
}

#: Fewest measured units per run (passes, sweeps, service cycles).
MIN_UNITS = {
    "paper": {"full": 5, "tiny": 1},
    "mesh": {"full": 3, "tiny": 1},
    "service": {"full": 40, "tiny": 2},
}


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    raw: Optional[float] = None  # median raw host seconds, for rescaled metrics
    index: Optional[float] = None  # median hardware index of those samples


@dataclass
class Context:
    repo: str
    workdir: str
    seed: int
    seconds: float
    size: str  # "full" or "tiny" (the benchmark's own tests)
    trace_dir: Optional[str] = None

    def env(self, traced: bool = False) -> Dict[str, str]:
        env = dict(os.environ)
        src = os.path.join(self.repo, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("EZBENCH_TRACE_DIR", None)
        if traced:
            env["EZBENCH_TRACE_DIR"] = self.trace_dir
        return env

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest: str = ""
    metrics: Dict[str, Metric] = field(default_factory=dict)
    refused: List[str] = field(default_factory=list)  # percentiles with too few samples

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.problems.append(why)


class ChildError(RuntimeError):
    pass


class Child:
    """One launched program process, talking ``READY``/``RESULT`` lines.

    A process still running ``CHILD_TIMEOUT_S`` after its launch is
    killed; whatever it was doing then counts as failed.
    """

    def __init__(self, ctx: Context, argv: List[str], log: str, traced: bool = False, new_session: bool = False):
        self.log_path = ctx.path(log)
        self._log = open(self.log_path, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=ctx.repo,
            env=ctx.env(traced),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            start_new_session=new_session,
        )
        self._watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()

    def wait_tag(self, tag: str) -> dict:
        for line in self.proc.stdout:
            if line.startswith(tag + " "):
                return json.loads(line[len(tag) + 1:])
        self.finish()
        raise ChildError(f"program exited before {tag}: {self.stderr_tail()}")

    def first_line(self) -> str:
        return self.proc.stdout.readline()

    def stderr_tail(self) -> str:
        if not self._log.closed:
            self._log.flush()
        with open(self.log_path) as handle:
            return handle.read()[-2000:]

    def finish(self, interrupt: bool = False) -> int:
        """Wait for the process to end (after SIGINT with ``interrupt``)."""
        if self._log.closed:
            return self.proc.returncode
        if interrupt and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        code = self.proc.wait()  # bounded by the watchdog
        self._watchdog.cancel()
        self.proc.stdout.close()
        self._log.close()
        return code


def program_child(ctx: Context, role: str, config: dict, log: str, traced: bool = False) -> Child:
    return Child(ctx, [sys.executable, CHILD, role, json.dumps(config)], log, traced)


@dataclass
class Samples:
    """Raw host seconds of repeated operations, each with its index."""

    raws: List[float] = field(default_factory=list)
    indexes: List[float] = field(default_factory=list)

    def add(self, raw: float, index: float) -> None:
        self.raws.append(raw)
        self.indexes.append(index)

    def rescaled(self) -> List[float]:
        return [raw * index for raw, index in zip(self.raws, self.indexes)]

    def median(self) -> Metric:
        return Metric(
            median(self.rescaled()), "s", len(self.raws), median(self.raws), median(self.indexes)
        )

    def quantile(self, fraction: float) -> Metric:
        """The rescaled quantile, beside the same quantile of raw seconds.

        Raises :class:`~stats.QuantileRefused` with too few samples.
        """
        return Metric(
            quantile(self.rescaled(), fraction),
            "s",
            len(self.raws),
            quantile(self.raws, fraction),
            median(self.indexes),
        )


def unit_wall(units: List[List[List[float]]]) -> Metric:
    """``wall_s``: the time one unit of fixed work takes.

    A unit is a fixed sequence of operations, each a ``[raw, index]``
    pair. Per operation, the median rescaled time over the run's units
    is taken; their sum is the unit's wall time. A slow burst of the
    machine then spoils one operation's sample, not a whole unit's.
    Units cut short by a failure (already counted) are left out.
    """
    size = max(len(unit) for unit in units)
    whole = [unit for unit in units if len(unit) == size]
    rescaled = sum(median([raw * index for raw, index in ops]) for ops in zip(*whole))
    raw = sum(median([raw for raw, _ in ops]) for ops in zip(*whole))
    return Metric(rescaled, "s", len(whole), raw, rescaled / raw)


def timed_launches(ctx: Context, count: int, launch) -> Metric:
    """``setup_s``: the median rescaled time of ``count`` fresh launches.

    ``launch()`` starts the program, returns once it is ready, and stops
    it; it returns the raw seconds from start to ready. A probe runs
    before the first launch and after each one.
    """
    calibrator = Calibrator()
    samples = Samples()
    calibrator.probe()
    for _ in range(count):
        raw = launch()
        calibrator.probe()
        samples.add(raw, calibrator.bracket_index())
    return samples.median()


def until_deadline(ctx: Context, minimum: int, started: float):
    """Yield unit numbers: at least ``minimum``, then while time is left.

    A further unit starts only when the median unit so far still fits
    before ``started + seconds``, so every run measures for about the
    same time and never overruns it by a whole unit.
    """
    deadline = started + ctx.seconds
    durations: List[float] = []
    number = 0
    while True:
        now = time.perf_counter()
        if number >= minimum and (not durations or now + median(durations) > deadline):
            return
        yield number
        durations.append(time.perf_counter() - now)
        number += 1


def run_checks(ctx: Context, outcome: Outcome, accuracy=None) -> Optional[dict]:
    """Byte-compare the regenerated goldens; with ``accuracy``, score the paper rows.

    Returns the checks' result, or None when the program died.
    """
    config = {"repo": ctx.repo, "out": ctx.path("goldens"), "accuracy": accuracy or []}
    child = program_child(ctx, "checks", config, "checks.log")
    try:
        result = child.wait_tag("RESULT")
    except ChildError as exc:
        outcome.attempted += 1
        outcome.fail(1, f"checks: {exc}")
        return None
    finally:
        child.finish()
    for entry in result["goldens"]:
        outcome.attempted += 1
        if not entry["identical"]:
            outcome.fail(1, f"golden {entry['golden']} differs from tests/goldens")
    if accuracy:
        outcome.attempted += 1
        if result["paper_rows"] != PAPER_ROWS:
            outcome.fail(1, f"{result['paper_rows']} paper rows, expected {PAPER_ROWS}")
    return result


def paper_accuracy(ctx: Context, outcome: Outcome) -> Optional[Metric]:
    """``paper_rel_err`` for a workload that runs no paper harness itself.

    The checks child also runs the harnesses that carry the paper's
    values, with the inputs of the ``paper`` workload's first pass on
    this seed, so every workload reports the same error beside its times.
    """
    accuracy = [r for r in paper_requests(ctx.seed, ctx.size, 0) if r[0] in PAPER_VALUE_IDS]
    result = run_checks(ctx, outcome, accuracy)
    if result is None or result["paper_rel_err"] is None:
        return None
    return Metric(result["paper_rel_err"], "ratio", result["paper_rows"])


def latency_metrics(outcome: Outcome, fresh: Samples, cached: Samples) -> None:
    """p50/p75 of fresh and cached submissions, when enough samples exist."""
    for name, samples in (("submit_to_done_s", fresh), ("cached_submit_to_done_s", cached)):
        for label, fraction in (("p50", 0.5), ("p75", 0.75)):
            try:
                outcome.metrics[f"{name}.{label}"] = samples.quantile(fraction)
            except QuantileRefused as exc:
                outcome.refused.append(f"{name}.{label}: {exc}")


# -- paper -----------------------------------------------------------------

#: Horizon parameters the common scale applies to.
HORIZON_KEYS = ("duration_s", "warmup_s", "slots", "trials", "time_scale")

#: 6% of every paper horizon: a pass takes about 4 s on a 2-vCPU Xeon VM.
PAPER_SCALE = {"full": 0.06, "tiny": 0.02}

#: fig4 and table2 read the same testbed runs; one seed keeps `run all`'s memo.
TESTBED_IDS = ("fig4", "table2")

#: Resubmissions of a whole unit to the store holding its results, each
#: a cache-hit round trip of a few milliseconds. 14 per unit give p75
#: its 40 samples even in a run of the fewest units (3 mesh sweeps).
RESUBMISSIONS = {"full": 14, "tiny": 2}


def paper_requests(seed: int, size: str, number: int):
    """(spec id, kwargs) for pass ``number``'s nine harnesses, in catalogue order.

    Each pass of a run draws its own harness seeds, so a run's
    per-harness medians cover several seeds, not one.
    """
    from repro.experiments.specs import catalogue

    scale = PAPER_SCALE[size]
    requests = []
    for entry in catalogue()["experiments"]:
        spec_id = entry["id"]
        if spec_id == "meshgen":
            continue
        defaults = {param["name"]: param["default"] for param in entry["params"]}
        kwargs = {}
        for key in HORIZON_KEYS:
            if key in defaults:
                value = defaults[key] * scale
                kwargs[key] = int(value) if isinstance(defaults[key], int) else value
        name = "testbed" if spec_id in TESTBED_IDS else spec_id
        kwargs["seed"] = derive_seed(seed, f"paper.{number}.{name}")
        requests.append((spec_id, kwargs))
    return requests


def paper_pass(ctx: Context, number: int, label: str, traced: bool = False) -> dict:
    """Fresh pass ``number`` of the nine harnesses (``{"died": ...}`` if it died)."""
    config = {
        "requests": paper_requests(ctx.seed, ctx.size, number),
        "ready_only": False,
        "store": ctx.path(f"paper-{label}.sqlite"),
        "resubmissions": RESUBMISSIONS[ctx.size],
    }
    child = program_child(ctx, "paper", config, f"paper-{label}.log", traced)
    try:
        child.wait_tag("READY")
        return child.wait_tag("RESULT")
    except ChildError as exc:
        return {"died": str(exc)}
    finally:
        child.finish()


def account_paper(outcome: Outcome, passes: List[dict]):
    """Count the passes' operations and failures.

    Returns each pass's harness times (``[raw, index]``, each rescaled
    by the probes right before and after that harness), the fresh
    per-request and cached whole-pass samples, and the digests.
    """
    walls, fresh, cached, digests = [], Samples(), Samples(), []
    for number, result in enumerate(passes):
        if "died" in result:
            outcome.attempted += 1
            outcome.fail(1, f"pass {number}: {result['died']}")
            continue
        outcome.attempted += result["attempted"]
        outcome.fail(result["failed"], f"pass {number}: {result['error'] or 'a resubmission ran again'}")
        if result["paper_rows"] != PAPER_ROWS:
            outcome.fail(1, f"pass {number}: {result['paper_rows']} paper rows, expected {PAPER_ROWS}")
        digests.append(result["digest"])
        walls.append(result["harnesses"])
        for raw, index in result["harnesses"]:
            fresh.add(raw, index)
        for raw, index in result["cached"]:
            cached.add(raw, index)
    return walls, fresh, cached, digests


def run_paper(ctx: Context) -> Outcome:
    outcome = Outcome()

    def launch() -> float:
        config = {"requests": paper_requests(ctx.seed, ctx.size, 0), "ready_only": True}
        child = program_child(ctx, "paper", config, "paper-setup.log")
        child.wait_tag("READY")
        ready_s = time.perf_counter() - child.started
        child.finish()
        return ready_s

    launch()  # untimed: compiles bytecode on a fresh checkout
    setup = timed_launches(ctx, SETUP_LAUNCHES["paper"][ctx.size], launch)
    minimum = MIN_UNITS["paper"][ctx.size]
    started = time.perf_counter()
    passes = [
        paper_pass(ctx, number, str(number))
        for number in until_deadline(ctx, minimum, started)
    ]
    walls, fresh, cached, digests = account_paper(outcome, passes)
    run_checks(ctx, outcome)
    first = passes[0]
    if "died" in first or first["paper_rel_err"] is None:
        return outcome
    # The first passes always run; later ones depend on the time left.
    outcome.digest = digest_of(digests[:minimum])
    done = [p for p in passes if "died" not in p]
    outcome.metrics["setup_s"] = setup
    outcome.metrics["wall_s"] = unit_wall(walls)
    outcome.metrics["peak_rss_mb"] = Metric(median([p["peak_rss_mb"] for p in done]), "MB", len(done))
    outcome.metrics["paper_rel_err"] = Metric(first["paper_rel_err"], "ratio", first["paper_rows"])
    latency_metrics(outcome, fresh, cached)
    return outcome


# -- mesh ------------------------------------------------------------------

ALGORITHMS = ["none", "ezflow", "diffq", "penalty"]

#: Per-run wall budget; generous, so it only forces the supervised worker.
MESH_RUN_TIMEOUT_S = 120.0

MESH_SIZES = {
    "full": {"big": 1000, "big_flows": 40, "big_s": 4.0, "event_n": 49, "lossy_n": 36, "flows": 10, "event_s": 4.0},
    "tiny": {"big": 100, "big_flows": 6, "big_s": 1.0, "event_n": 16, "lossy_n": 16, "flows": 3, "event_s": 2.0},
}


def mesh_groups(seed: int, size: str, sweep: int):
    """Sweep number ``sweep``: one Study per layout and algorithm.

    Single-run Studies keep each measured stretch under a second or so,
    and a probe runs between Studies, while the worker is idle. Ten
    flows per event-tier run keep the work per layout steady (the event
    count varies 2% across seeds, against 6% with four flows). Each
    sweep of a run draws its own layouts, so the per-Study medians of a
    run cover several layouts, not one.

    The Study times fall in two blocks: 14 short event-tier ones and 8
    long slotted ones (two large layouts). p50 then lands inside the
    first block and p75 inside the second, never on the edge between.
    """
    s = MESH_SIZES[size]
    seed = derive_seed(seed, f"mesh.sweep.{sweep}")
    layouts = [
        # Dense enough to connect on the first placement.
        {
            "topology": "mesh", "nodes": s["big"], "density": 5.0, "flows": s["big_flows"],
            "fidelity": "slotted", "duration_s": s["big_s"], "warmup_s": 1.0,
            "seed": derive_seed(seed, f"mesh.slotted.{layout}"),
        }
        for layout in range(2)
    ]
    for topology in ("mesh", "grid", "tree"):
        # Density only shapes random meshes; 3.0 connects on the first
        # placement or close to it, far from the 200-attempt limit.
        layouts.append(
            {
                "topology": topology, "nodes": s["event_n"], "density": 3.0, "flows": s["flows"],
                "duration_s": s["event_s"], "warmup_s": 1.0, "seed": derive_seed(seed, "mesh.event"),
            }
        )
    lossy = {
        "topology": "mesh", "nodes": s["lossy_n"], "density": 3.0, "flows": s["flows"],
        "duration_s": s["event_s"], "warmup_s": 1.0,
        "loss": "ge:0.05:0.3", "churn": "down:5@1+move:7@1:40:40+up:5@1.5",
        "seed": derive_seed(seed, "mesh.lossy"),
    }
    groups = [
        {"name": f"{layout['topology']}-{layout['nodes']}-{algorithm}", "set": dict(layout, algorithm=algorithm), "grid": {}}
        for layout in layouts
        for algorithm in ALGORITHMS
    ]
    groups += [
        {"name": f"lossy-{algorithm}", "set": dict(lossy, algorithm=algorithm), "grid": {}}
        for algorithm in ("none", "ezflow")
    ]
    return groups


def mesh_config(ctx: Context, store: str, ready_only: bool, sweep: int = 0) -> dict:
    return {
        "groups": mesh_groups(ctx.seed, ctx.size, sweep),
        "warmup": {
            "topology": "grid", "nodes": 4, "flows": 1, "fidelity": "slotted",
            "duration_s": 1.0, "warmup_s": 0.5, "seed": derive_seed(ctx.seed, "mesh.warmup"),
        },
        "run_timeout_s": MESH_RUN_TIMEOUT_S,
        "store": store,
        "ready_only": ready_only,
        "resubmissions": RESUBMISSIONS[ctx.size],
    }


def mesh_sweep(ctx: Context, sweep: int, label: str, traced: bool = False) -> dict:
    """One fresh sweep into a fresh store (``{"died": ...}`` if it died)."""
    config = mesh_config(ctx, ctx.path(f"sweep-{label}.sqlite"), False, sweep)
    child = program_child(ctx, "mesh", config, f"mesh-{label}.log", traced)
    try:
        ready = child.wait_tag("READY")
        return dict(child.wait_tag("RESULT"), spawn_s=ready["spawn_s"])
    except ChildError as exc:
        return {"died": str(exc)}
    finally:
        child.finish()


def account_mesh(outcome: Outcome, sweeps: List[dict]):
    """Count the sweeps' operations and failures.

    Returns each sweep's operation times (Studies, then compare), the
    fresh per-Study and cached whole-sweep samples, and the digests.
    """
    walls, fresh, cached, digests = [], Samples(), Samples(), []
    for number, result in enumerate(sweeps):
        if "died" in result:
            outcome.attempted += 1
            outcome.fail(1, f"sweep {number}: {result['died']}")
            continue
        outcome.attempted += result["attempted"]
        failed = [f["run_id"] for f in result["failures"]]
        outcome.fail(len(failed), f"sweep {number}: failed runs {failed}")
        outcome.fail(len(result["mismatched"]), f"sweep {number}: store read-back differs {result['mismatched']}")
        outcome.fail(len(result["grammar_errors"]), f"sweep {number}: grammar {result['grammar_errors']}")
        outcome.fail(result["uncached"], f"sweep {number}: {result['uncached']} resubmitted run(s) ran again")
        outcome.fail(len(result["compare_errors"]), f"sweep {number}: compare {result['compare_errors']}")
        digests.append(result["digest"])
        walls.append(result["fresh"] + [result["compare"]])
        for raw, index in result["fresh"]:
            fresh.add(raw, index)
        for raw, index in result["cached"]:
            cached.add(raw, index)
    return walls, fresh, cached, digests


def run_mesh(ctx: Context) -> Outcome:
    outcome = Outcome()
    launches = iter(range(10**6))

    def launch() -> float:
        config = mesh_config(ctx, ctx.path(f"setup-{next(launches)}.sqlite"), True)
        child = program_child(ctx, "mesh", config, "mesh-setup.log")
        child.wait_tag("READY")
        ready_s = time.perf_counter() - child.started
        child.finish()
        return ready_s

    launch()  # untimed: compiles bytecode on a fresh checkout
    setup = timed_launches(ctx, SETUP_LAUNCHES["mesh"][ctx.size], launch)
    minimum = MIN_UNITS["mesh"][ctx.size]
    started = time.perf_counter()
    sweeps = [
        mesh_sweep(ctx, number, str(number))
        for number in until_deadline(ctx, minimum, started)
    ]
    walls, fresh, cached, digests = account_mesh(outcome, sweeps)
    accuracy = paper_accuracy(ctx, outcome)
    done = [s for s in sweeps if "died" not in s]
    if not done or accuracy is None:
        return outcome
    # The first sweeps always run; later ones depend on the time left.
    outcome.digest = digest_of(digests[:minimum])
    outcome.metrics["setup_s"] = setup
    outcome.metrics["wall_s"] = unit_wall(walls)
    outcome.metrics["peak_rss_mb"] = Metric(median([s["peak_rss_mb"] for s in done]), "MB", len(done))
    outcome.metrics["paper_rel_err"] = accuracy
    latency_metrics(outcome, fresh, cached)
    return outcome


# -- service ---------------------------------------------------------------

SERVICE_SIZES = {
    "full": {"nodes": 25, "flows": 4, "duration_s": 4.0},
    "tiny": {"nodes": 9, "flows": 2, "duration_s": 1.0},
}


def service_payload(seed: int, cycle: int, size: str) -> dict:
    """A fresh study: 3 topologies x 4 algorithms of short slotted runs."""
    s = SERVICE_SIZES[size]
    return {
        "experiment": "meshgen",
        "grid": {"topology": ["mesh", "grid", "tree"], "algorithm": ALGORITHMS},
        "set": {
            # Dense enough that a random mesh places in a few attempts,
            # far from the 200-attempt limit that fails a run.
            "nodes": s["nodes"], "density": 3.0, "flows": s["flows"], "fidelity": "slotted",
            "duration_s": s["duration_s"], "warmup_s": 0.5,
            "seed": derive_seed(seed, f"service.{cycle}"),
        },
    }


class Service:
    """``python -m repro.service`` on a fresh sqlite store, ephemeral port.

    The service runs in its own process group, so a set-up launch can be
    stopped with everything it may have started.
    """

    def __init__(self, ctx: Context, store: str, log: str, traced: bool = False):
        args = ["--store", "sqlite:" + store, "--port", "0", "--jobs", "1", "--quiet"]
        if traced:
            argv = [sys.executable, CHILD, "service"] + args
        else:
            argv = [sys.executable, "-m", "repro.service"] + args
        self.child = Child(ctx, argv, log, traced, new_session=True)
        line = self.child.first_line()
        if "http://" not in line:
            self.child.finish(interrupt=True)
            raise ChildError(f"service did not start: {line!r} {self.child.stderr_tail()}")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        self.client = ServiceClient(host, int(port))
        while True:
            try:
                status, _ = self.client.call("status", "GET", "/status")
            except OSError:
                status = 0
            if status == 200:
                break
            if self.child.proc.poll() is not None:
                raise ChildError(f"service exited: {self.child.stderr_tail()}")
            time.sleep(0.002)
        self.ready_s = time.perf_counter() - self.child.started

    def drain(self) -> int:
        """Stop the service the documented way (SIGINT); its exit code."""
        return self.child.finish(interrupt=True)

    def kill(self) -> None:
        """Stop the service and anything it started, without waiting for a drain."""
        os.killpg(self.child.proc.pid, signal.SIGKILL)
        self.child.finish()


@dataclass
class Trip:
    seconds: float
    queue_wait_s: float
    compare_md: bytes


def trip(service: Service, payload: dict, cached: bool) -> Trip:
    """POST a study, stream its events to the end, check it, fetch compare.md."""
    client = service.client
    started = time.perf_counter()
    job = client.json("post", "POST", "/studies", payload)
    events, first_event = client.events(job["id"])
    done = time.perf_counter()
    errors = stream_errors(events, cached)
    if errors:
        raise TripError(f"grammar: {errors}")
    doc = client.json("job", "GET", f"/jobs/{job['id']}")
    if doc["state"] != "done" or doc["exit_code"] != 0:
        raise TripError(f"job {job['id']} ended {doc['state']} exit {doc['exit_code']}")
    status, markdown = client.call("compare", "GET", f"/jobs/{job['id']}/compare.md")
    if status != 200:
        raise TripError(f"compare.md -> HTTP {status}")
    return Trip(done - started, first_event - started, markdown)


@dataclass
class Session:
    fresh: Samples = field(default_factory=Samples)
    cached: Samples = field(default_factory=Samples)
    cycles: Samples = field(default_factory=Samples)
    queue_waits: List[float] = field(default_factory=list)
    markdowns: List[str] = field(default_factory=list)
    peak_rss_mb: Optional[float] = None
    client_stats: object = None

    @property
    def digest(self) -> str:
        return digest_of(self.markdowns)


def service_session(ctx: Context, outcome: Outcome, minimum: int, label: str, traced: bool = False) -> Session:
    """One service on a fresh store, driven by closed-loop cycles.

    A cycle submits a fresh study, then resubmits it. Cycles run until
    the deadline, at least ``minimum`` of them; the compare.md bodies
    and the peak RSS are taken over the first ``minimum`` cycles.
    """
    session = Session()
    calibrator = Calibrator()
    service = Service(ctx, ctx.path(f"service-{label}.sqlite"), f"service-{label}.log", traced)
    session.client_stats = service.client.stats
    try:
        started = time.perf_counter()
        calibrator.probe()
        for cycle in until_deadline(ctx, minimum, started):
            payload = service_payload(ctx.seed, cycle, ctx.size)
            outcome.attempted += 2
            try:
                first = trip(service, payload, cached=False)
                calibrator.probe()
                session.fresh.add(first.seconds, calibrator.bracket_index())
                session.queue_waits.append(first.queue_wait_s)
                before = service.client.json("status", "GET", "/status")["runs_executed"]
                calibrator.probe()
                second = trip(service, payload, cached=True)
                calibrator.probe()
                session.cached.add(second.seconds, calibrator.bracket_index())
                after = service.client.json("status", "GET", "/status")["runs_executed"]
                if after != before:
                    raise TripError(f"resubmission executed {after - before} run(s)")
                if second.compare_md != first.compare_md:
                    raise TripError("resubmission compare.md differs from the fresh trip's")
            except (TripError, OSError, ValueError, KeyError) as exc:
                outcome.fail(1, f"cycle {cycle}: {type(exc).__name__}: {exc}")
                calibrator.probe()
                continue
            session.cycles.add(
                first.seconds + second.seconds,
                (first.seconds * session.fresh.indexes[-1] + second.seconds * session.cached.indexes[-1])
                / (first.seconds + second.seconds),
            )
            if cycle < minimum:
                session.markdowns.append(first.compare_md.decode())
            if cycle == minimum - 1:
                # Read after a fixed amount of work: the service keeps
                # every job's history, so later readings grow with the
                # cycle count.
                session.peak_rss_mb = tree_peak_rss_mb(service.child.proc.pid)
    finally:
        code = service.drain()
    outcome.attempted += 1
    outcome.fail(int(code != 0), f"service exited {code}")
    return session


def run_service(ctx: Context) -> Outcome:
    outcome = Outcome()
    launches = iter(range(10**6))

    def launch() -> float:
        service = Service(ctx, ctx.path(f"setup-{next(launches)}.sqlite"), "service-setup.log")
        service.kill()
        return service.ready_s

    launch()  # untimed: compiles bytecode on a fresh checkout
    setup = timed_launches(ctx, SETUP_LAUNCHES["service"][ctx.size], launch)
    session = service_session(ctx, outcome, MIN_UNITS["service"][ctx.size], "main")
    accuracy = paper_accuracy(ctx, outcome)
    outcome.digest = session.digest
    if session.peak_rss_mb is None or accuracy is None:
        return outcome
    outcome.metrics["setup_s"] = setup
    outcome.metrics["wall_s"] = session.cycles.median()
    outcome.metrics["peak_rss_mb"] = Metric(session.peak_rss_mb, "MB", 1)
    outcome.metrics["paper_rel_err"] = accuracy
    latency_metrics(outcome, session.fresh, session.cached)
    return outcome


WORKLOADS = {"paper": run_paper, "mesh": run_mesh, "service": run_service}

"""The sweep service's job plane: submissions, the queue, the scheduler.

A *job* is one submitted study — a scenario plus a parameter grid,
exactly the shape :class:`repro.results.Study` builds — together with
its per-job execution policy (``on_error``, ``run_timeout``, an optional
fault plan). Jobs queue in submission order and a single scheduler
thread executes them one batch at a time, sharding each job's run grid
across one persistent supervised
:class:`~repro.experiments.runner.SweepRunner` pool that feeds a single
shared :class:`~repro.results.store.SqliteStore`:

* the pool survives across jobs (and worker crashes — PR 8's
  supervision), so the service pays process spin-up once;
* every completed run checkpoints into the shared store under its
  content key, so a second job submitting an overlapping grid gets pure
  cache hits for the overlap — many clients share one warm store
  instead of re-simulating;
* a job whose policy is ``fail`` aborts *that job* on the first
  failure; the queue keeps draining. Typed
  :class:`~repro.experiments.runner.RunFailure` records surface in the
  job's status document, mirroring the CLI's exit-code ladder.

Everything here is HTTP-free — :mod:`repro.service.app` is the thin
WSGI layer over this object.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.experiments.faults import FaultPlan
from repro.experiments.runner import (
    ErrorPolicy,
    RunTimeoutError,
    SweepRunner,
    WorkerCrashError,
)
from repro.results import ResultSet, Study
from repro.results.store import open_store
from repro.telemetry.events import event_to_json_dict
from repro.telemetry.hub import TelemetryHub

#: Schema tags of the service's JSON documents.
JOB_SCHEMA = "repro.service/job/1"
STATUS_SCHEMA = "repro.service/status/1"

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
)


class JobError(ValueError):
    """A study submission is invalid (the HTTP layer maps this to 400)."""


def _require(payload: Mapping, key: str, kind, kindname: str):
    value = payload.get(key)
    if not isinstance(value, kind):
        raise JobError(f"submission field {key!r}: expected {kindname}")
    return value


def build_study(payload: Mapping) -> Study:
    """A :class:`~repro.results.Study` from a submission document.

    The document mirrors the builder verbs::

        {"experiment": "meshgen",
         "grid": {"nodes": [16, 25], "algorithm": ["none", "ezflow"]},
         "set": {"topology": "mesh"},          # pin single values
         "seeds": 3, "base_seed": 7,           # aligned seed axis, or
         "replicates": 2,                      # CLI-style replicates
         "no_default_axes": true}              # skip declared sweep axes

    ``grid`` values may be lists (axes) or scalars (pins); all values
    may be typed or CLI strings — they validate against the scenario's
    declared schema, and an unknown axis or unparsable value raises the
    same typed errors the CLI reports as exit 2.
    """
    if not isinstance(payload, Mapping):
        raise JobError("submission must be a JSON object")
    experiment = _require(payload, "experiment", str, "a scenario id string")
    study = Study(experiment)
    grid = payload.get("grid", {})
    if not isinstance(grid, Mapping):
        raise JobError("submission field 'grid': expected an object of axes")
    for name, value in grid.items():
        study.grid(**{name: value})
    fixed = payload.get("set", {})
    if not isinstance(fixed, Mapping):
        raise JobError("submission field 'set': expected an object of values")
    if fixed:
        study.set(**fixed)
    if payload.get("no_default_axes"):
        study.no_default_axes()
    seeds = payload.get("seeds")
    replicates = payload.get("replicates")
    if seeds is not None and replicates is not None:
        raise JobError("submission fields 'seeds' and 'replicates' are exclusive")
    base_seed = payload.get("base_seed")
    if base_seed is not None and not isinstance(base_seed, int):
        raise JobError("submission field 'base_seed': expected an integer")
    if seeds is not None:
        if not isinstance(seeds, (int, list)) or isinstance(seeds, bool):
            raise JobError(
                "submission field 'seeds': expected a count or a list of seeds"
            )
        study.seeds(seeds, base=base_seed)
    elif replicates is not None:
        if not isinstance(replicates, int) or isinstance(replicates, bool):
            raise JobError("submission field 'replicates': expected an integer")
        study.replicates(replicates, base_seed=base_seed)
    return study


class Job:
    """One submitted study and everything known about its execution.

    Mutable state is guarded by the owning service's lock; readers get
    consistent snapshots through :meth:`to_json_dict`. ``exit_code``
    mirrors the CLI's exit ladder so a job status reads like a ``sweep``
    invocation: 0 done, 1 aborted by a timeout/crash/exception under
    ``fail``, 4 completed under ``continue`` with failures, 130
    cancelled before it ran.
    """

    def __init__(
        self,
        job_id: str,
        study: Study,
        requests,
        policy: ErrorPolicy,
        run_timeout: Optional[float],
        faults: Optional[FaultPlan],
        fault_spec: Optional[str],
        on_error_spec: str,
    ):
        self.id = job_id
        self.study = study
        self.requests = list(requests)
        self.policy = policy
        self.run_timeout = run_timeout
        self.faults = faults
        self.fault_spec = fault_spec
        self.on_error_spec = on_error_spec
        self.state = QUEUED
        self.error: Optional[str] = None
        self.exit_code: Optional[int] = None
        self.results: Optional[ResultSet] = None
        self.failures: List[object] = []
        self.run_states: Dict[str, str] = {
            request.run_id: "pending" for request in self.requests
        }
        self.cached = 0
        self.executed = 0
        #: Telemetry event log: (event id, kind, serialised JSON). Event
        #: ids are monotonic per job and are the SSE ``id:`` values, so
        #: ``Last-Event-ID`` resume replays exactly the unseen suffix.
        self.events: List[Tuple[int, str, str]] = []
        self._event_seq = 0

    def add_event(self, event) -> None:
        """Append a telemetry event (caller holds the service lock)."""
        self._event_seq += 1
        self.events.append(
            (
                self._event_seq,
                event.kind,
                json.dumps(event_to_json_dict(event), sort_keys=True),
            )
        )

    # -- scheduler-side transitions (caller holds the service lock) ----

    def record(self, record) -> None:
        """Fold one completed run (request order) into the progress view."""
        if record.failure is not None:
            self.run_states[record.request.run_id] = "failed"
            self.executed += 1
        elif record.cached:
            self.run_states[record.request.run_id] = "cached"
            self.cached += 1
        else:
            self.run_states[record.request.run_id] = "done"
            self.executed += 1

    def finish(self, results: ResultSet) -> None:
        """Mark done; exit 4 when the set carries failures, else 0."""
        self.results = results
        self.failures = list(results.failures)
        self.state = DONE
        self.exit_code = 4 if results.failures else 0

    def fail(self, message: str, exit_code: int = 1) -> None:
        """Mark failed with the batch-aborting error and its exit code."""
        self.error = message
        self.state = FAILED
        self.exit_code = exit_code

    def cancel(self) -> None:
        """Mark cancelled before running (the interrupted-sweep code)."""
        self.state = CANCELLED
        self.exit_code = 130

    # -- views ---------------------------------------------------------

    @property
    def completed(self) -> int:
        return self.cached + self.executed

    @property
    def failed_runs(self) -> int:
        return sum(1 for state in self.run_states.values() if state == "failed")

    def to_json_dict(self, runs: bool = True) -> Dict[str, object]:
        """The job status document (``runs=False`` for list summaries)."""
        doc: Dict[str, object] = {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "state": self.state,
            "experiment": self.study.spec.id,
            "total_runs": len(self.requests),
            "completed": self.completed,
            "cached": self.cached,
            "executed": self.executed,
            "failed_runs": self.failed_runs,
            "exit_code": self.exit_code,
            "error": self.error,
            "on_error": self.on_error_spec,
            "run_timeout": self.run_timeout,
            "fault_plan": self.fault_spec,
            "failures": [failure.to_json_dict() for failure in self.failures],
        }
        if runs:
            doc["runs"] = [
                {"run_id": run_id, "state": state}
                for run_id, state in self.run_states.items()
            ]
        return doc


class SweepService:
    """The queue + scheduler core of the long-running sweep service.

    One instance owns one persistent :class:`SweepRunner` pool and one
    shared result store (named by url — ``sqlite:runs.sqlite`` is the
    recommended backend for pooling many studies; the store instance is
    opened *inside* the scheduler thread, respecting sqlite's thread
    affinity, and closed when the scheduler drains). ``submit`` is
    thread-safe and cheap: it validates the submission into a request
    list and enqueues; all execution happens on the scheduler thread.

    ``default_on_error``/``default_run_timeout`` apply to jobs that do
    not set their own (the CLI's ``--on-error``/``--run-timeout``).
    ``mp_context`` defaults to ``spawn``: the scheduler forks workers
    from a thread while HTTP threads run, and spawn sidesteps the
    fork-from-multithreaded-process hazard for the price of a one-time
    pool spin-up.
    """

    def __init__(
        self,
        store_url: str,
        jobs: int = 1,
        default_on_error: str = "fail",
        default_run_timeout: Optional[float] = None,
        mp_context: Optional[str] = "spawn",
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if default_run_timeout is not None and default_run_timeout <= 0:
            raise ValueError("run_timeout must be positive")
        ErrorPolicy.parse(default_on_error)  # validate eagerly
        self.store_url = store_url
        self.jobs = jobs
        self.default_on_error = default_on_error
        self.default_run_timeout = default_run_timeout
        self._runner = SweepRunner(jobs=jobs, mp_context=mp_context)
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        # Signalled whenever any job gains telemetry events or reaches a
        # terminal state; SSE streams block on it between frames.
        self._events = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: List[str] = []
        self._current: Optional[str] = None
        self._stopping = False
        self._thread: Optional[threading.Thread] = None
        self._counter = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SweepService":
        """Start the scheduler thread (idempotent)."""
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._scheduler, name="sweep-scheduler", daemon=True
                )
                self._thread.start()
        return self

    def __enter__(self) -> "SweepService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain and stop: finish the running job, cancel the queue.

        The running job's completed runs are already checkpointed in the
        shared store, so even jobs cancelled here lose no executed work —
        resubmitting them against the same store resumes as cache hits.
        Idempotent; closes the worker pool last.
        """
        with self._lock:
            self._stopping = True
            self._work.notify_all()
            self._events.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout)
        self._runner.close()

    # -- submission & queries (any thread) -----------------------------

    def submit(self, payload: Mapping) -> Job:
        """Validate a submission document and enqueue it as a job.

        Raises :class:`JobError` (or the catalogue's typed parameter
        errors) without touching the queue when the document is invalid;
        a returned job is already visible to status endpoints.
        """
        study = build_study(payload)
        on_error = payload.get("on_error", self.default_on_error)
        if not isinstance(on_error, str):
            raise JobError("submission field 'on_error': expected a string")
        policy = ErrorPolicy.parse(on_error)
        run_timeout = payload.get("run_timeout", self.default_run_timeout)
        if run_timeout is not None:
            if isinstance(run_timeout, bool) or not isinstance(
                run_timeout, (int, float)
            ):
                raise JobError("submission field 'run_timeout': expected a number")
            run_timeout = float(run_timeout)
            if run_timeout <= 0:
                raise JobError("submission field 'run_timeout': must be positive")
        fault_spec = payload.get("fault_plan")
        faults = None
        if fault_spec is not None:
            if not isinstance(fault_spec, str):
                raise JobError("submission field 'fault_plan': expected a string")
            faults = FaultPlan.parse(fault_spec)
        requests = study.requests()  # validates every axis value
        with self._lock:
            if self._stopping:
                raise JobError("service is shutting down; not accepting jobs")
            self._counter += 1
            job = Job(
                f"job-{self._counter:04d}",
                study,
                requests,
                policy,
                run_timeout,
                faults,
                fault_spec,
                on_error,
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._queue.append(job.id)
            self._work.notify()
        return job

    def job(self, job_id: str) -> Optional[Job]:
        """Look up one job by id (None when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs_list(self) -> List[Job]:
        """Every job ever submitted, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; running/finished jobs are not touched."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != QUEUED:
                return False
            job.cancel()
            self._queue.remove(job_id)
            self._events.notify_all()
            return True

    def status_json_dict(self) -> Dict[str, object]:
        """The service status document (the ``/status`` endpoint)."""
        with self._lock:
            # Zero-filled so every lifecycle state is always present —
            # dashboards and scripts can index without existence checks.
            by_state: Dict[str, int] = {
                state: 0 for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
            }
            failures = 0
            executed = 0
            cached = 0
            for job in self._jobs.values():
                by_state[job.state] += 1
                failures += len(job.failures)
                executed += job.executed
                cached += job.cached
            return {
                "schema": STATUS_SCHEMA,
                "store": self.store_url,
                "workers": self.jobs,
                "accepting": not self._stopping,
                "uptime_s": round(time.monotonic() - self._started, 3),
                "queue_depth": len(self._queue),
                "running": self._current,
                "jobs": by_state,
                "jobs_total": len(self._jobs),
                "failure_count": failures,
                "runs_executed": executed,
                "runs_cached": cached,
            }

    def wait_events(
        self, job: Job, after_id: int, timeout: Optional[float] = None
    ) -> Tuple[List[Tuple[int, str, str]], bool]:
        """Events of ``job`` with id > ``after_id``, blocking when empty.

        Returns ``(events, terminal)`` where ``terminal`` means the job
        has reached a final state (done/failed/cancelled) — with no new
        events, that is the SSE stream's clean-close signal. Blocks at
        most ``timeout`` seconds (one wait) when nothing is pending yet.
        """
        with self._lock:
            events = [entry for entry in job.events if entry[0] > after_id]
            terminal = job.state in (DONE, FAILED, CANCELLED)
            if events or terminal:
                return events, terminal
            self._events.wait(timeout=timeout)
            events = [entry for entry in job.events if entry[0] > after_id]
            terminal = job.state in (DONE, FAILED, CANCELLED)
            return events, terminal

    # -- the scheduler thread ------------------------------------------

    def _next_job(self) -> Optional[Job]:
        """Block until a job is queued or shutdown begins; pop it."""
        with self._lock:
            while True:
                if self._queue:
                    job = self._jobs[self._queue.pop(0)]
                    if self._stopping:
                        job.cancel()
                        self._events.notify_all()
                        continue
                    job.state = RUNNING
                    self._current = job.id
                    return job
                if self._stopping:
                    return None
                self._work.wait(timeout=0.5)

    def _run_job(self, job: Job, store) -> None:
        def on_record(record) -> None:
            with self._lock:
                job.record(record)

        # Per-job hub: the runner streams run events through it and the
        # listener folds them into the job's event log, waking any SSE
        # streams blocked on the events condition.
        hub = TelemetryHub()

        def on_event(event) -> None:
            with self._lock:
                job.add_event(event)
                self._events.notify_all()

        hub.subscribe(on_event)
        try:
            records = self._runner.run(
                job.requests,
                on_record=on_record,
                store=store,
                policy=job.policy,
                run_timeout=job.run_timeout,
                faults=job.faults,
                telemetry=hub,
            )
        except (RunTimeoutError, WorkerCrashError) as error:
            with self._lock:
                job.fail(str(error), exit_code=1)
                self._events.notify_all()
        except Exception as error:  # a run raised under the fail policy
            with self._lock:
                job.fail(f"{type(error).__name__}: {error}", exit_code=1)
                self._events.notify_all()
        else:
            with self._lock:
                job.finish(ResultSet.from_records(records))
                self._events.notify_all()

    def _scheduler(self) -> None:
        """The scheduler loop: one shared store, one job at a time.

        A job failing — whatever the cause, chaos plans included — only
        fails that job; the loop always advances to the next one, so a
        poisoned submission can never wedge the queue.
        """
        store = open_store(self.store_url)
        try:
            while True:
                job = self._next_job()
                if job is None:
                    return
                try:
                    self._run_job(job, store)
                finally:
                    with self._lock:
                        self._current = None
        finally:
            store.close()

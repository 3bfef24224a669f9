"""Fault-tolerant parallel scenario-sweep runner.

``SweepRunner`` executes :class:`RunRequest` batches — single paper
experiments, the whole catalogue, or cartesian parameter grids — either
inline or fanned out over worker processes. Results come back in request
order regardless of worker count, and every run's seed is derived from
the request alone, so a parallel sweep is byte-identical to the same
sweep run serially (``tests/test_runner.py`` locks this in).

Every batch goes through one dispatch loop (:meth:`SweepRunner.run`)
over one of two *lanes*. The inline lane runs attempts in the caller's
thread and keeps a raising run's original exception object; the process
lane runs them in a supervised ``ProcessPoolExecutor`` that attributes
a worker raising, hanging past ``run_timeout``, or dying outright
(segfault, OOM kill, ``os._exit``) to the run that caused it. The loop
does the rest once, whichever lane ran the attempt: retries with capped
exponential backoff, typed :class:`RunFailure` records, the
:class:`ErrorPolicy` (``fail``, the default, aborts the batch at the
failed run's position; ``continue`` records and keeps going),
checkpointing into a store, run lifecycle events, and releasing records
in request order.

Design rules that keep the determinism guarantee cheap:

* a request is a pure function of (spec id, kwargs): workers share no
  state and records are always *released* in request order, whatever
  order completions arrive in;
* both lanes catch a run's errors at the same stack depth
  (:func:`_attempt`), so recorded failure tracebacks are byte-identical
  at any ``--jobs`` count;
* exported artefacts never contain wall-clock times or timestamps —
  timing is reported on stdout only;
* worker processes re-resolve the entry point from the spec's
  ``module:function`` string, so requests pickle trivially under both
  fork and spawn start methods.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import time
import traceback as traceback_module
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor, CancelledError
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.faults import FaultAction, FaultPlan
from repro.experiments.specs import ScenarioSpec, get_spec
from repro.telemetry.channel import WorkerPublisher, drain_channel
from repro.telemetry.events import RunFailed, RunFinished, RunStarted
from repro.telemetry.hub import RunEventGate
from repro.telemetry.probe import ProbeSession, activate_probe


@dataclass(frozen=True)
class RunRequest:
    """One unit of work: a scenario plus its (validated) kwargs.

    ``run_id`` names the run everywhere — progress lines, export
    directories, manifest entries. It must be unique within a batch and
    filesystem-safe; :func:`request_for` builds canonical ones.
    """

    spec_id: str
    kwargs: Tuple[Tuple[str, object], ...]  # sorted items, hashable/picklable
    run_id: str

    @property
    def kwargs_dict(self) -> Dict[str, object]:
        return dict(self.kwargs)


#: Schema tag of the failure wire form (:meth:`RunFailure.to_json_dict`).
RUN_FAILURE_SCHEMA = "repro.results/failure/1"


@dataclass
class RunFailure:
    """One run's typed failure record.

    ``kind`` classifies the failure mode: ``exception`` (the run
    raised), ``timeout`` (it exceeded the per-run timeout and its worker
    was killed), or ``worker-crash`` (the worker process died under it —
    segfault, OOM kill, ``os._exit``). ``attempts`` counts executions
    including retries. ``wall_s`` is in-memory bookkeeping only;
    :meth:`to_dict` (the exported/stored form) omits it so failure
    records stay deterministic at any ``--jobs`` count.
    """

    run_id: str
    spec_id: str
    kwargs: Dict[str, object] = field(default_factory=dict)
    kind: str = "exception"
    error: str = ""
    message: str = ""
    traceback: Optional[str] = None
    attempts: int = 1
    wall_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """The deterministic (timestamp- and timing-free) export form."""
        return {
            "run_id": self.run_id,
            "spec_id": self.spec_id,
            "kwargs": self.kwargs,
            "kind": self.kind,
            "error": self.error,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    def to_json_dict(self) -> Dict[str, object]:
        """The schema-versioned wire form (HTTP responses).

        The body is exactly :meth:`to_dict` — the same dict
        ``failures.json`` exports — wrapped with a ``schema`` tag at the
        envelope so clients can detect layout changes; export bytes
        carry no tag and stay unchanged.
        """
        return {"schema": RUN_FAILURE_SCHEMA, **self.to_dict()}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunFailure":
        return cls(
            run_id=data["run_id"],
            spec_id=data["spec_id"],
            kwargs=dict(data.get("kwargs", {})),
            kind=data.get("kind", "exception"),
            error=data.get("error", ""),
            message=data.get("message", ""),
            traceback=data.get("traceback"),
            attempts=int(data.get("attempts", 1)),
            wall_s=float(data.get("wall_s", 0.0)),
        )


@dataclass
class RunRecord:
    """The outcome of one request.

    ``cached`` is True when the record came out of a
    :class:`~repro.results.store.SqliteStore` instead of being executed
    (a checkpoint/dedupe hit); ``wall_s`` then reports the originally
    measured wall seconds. Under ``--on-error continue`` a failed run
    yields a record with ``failure`` set and ``result`` None.
    """

    request: RunRequest
    result: Optional[ExperimentResult]
    wall_s: float
    cached: bool = False
    failure: Optional[RunFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class ErrorPolicy:
    """What :meth:`SweepRunner.run` does when a run fails.

    ``fail`` aborts the batch on the first failure (the error propagates
    as itself — the historical behaviour and still the default).
    ``continue`` records a :class:`RunFailure` and keeps going.
    ``retries`` re-executes a failed run up to N extra times, sleeping
    ``min(backoff_cap_s, backoff_base_s * 2**(attempt-1))`` between
    attempts, before the mode applies; :meth:`parse` spells this
    ``retry:N`` (retry, then record and continue).
    """

    mode: str = "fail"
    retries: int = 0
    backoff_base_s: float = 0.1
    backoff_cap_s: float = 2.0

    def __post_init__(self):
        if self.mode not in ("fail", "continue"):
            raise ValueError(f"error policy mode {self.mode!r}: expected "
                             f"'fail' or 'continue'")
        if self.retries < 0:
            raise ValueError("error policy retries must be >= 0")

    @classmethod
    def parse(cls, spec: str) -> "ErrorPolicy":
        """Parse the CLI spelling: ``fail`` | ``continue`` | ``retry:N``."""
        text = (spec or "").strip()
        if text == "fail":
            return cls("fail")
        if text == "continue":
            return cls("continue")
        if text.startswith("retry:"):
            try:
                retries = int(text[len("retry:"):])
            except ValueError:
                retries = 0
            if retries < 1:
                raise ValueError(
                    f"error policy {spec!r}: retry:N needs a positive N"
                )
            return cls("continue", retries=retries)
        raise ValueError(
            f"error policy {spec!r}: expected 'fail', 'continue' or 'retry:N'"
        )

    def backoff_s(self, attempt: int) -> float:
        """Sleep before re-executing after the ``attempt``-th failure."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1)))


class RunTimeoutError(RuntimeError):
    """A run exceeded the per-run timeout and its worker was killed."""


class WorkerCrashError(RuntimeError):
    """A worker process died (segfault, OOM kill, ``os._exit``)."""


class WorkerRunError(RuntimeError):
    """A worker's exception could not be pickled back; carries its text."""


def _slug(value: object) -> str:
    """Filesystem-safe rendering of one kwarg value."""
    if isinstance(value, (tuple, list)):
        return "+".join(_slug(v) for v in value)
    return str(value).replace("/", "_").replace(" ", "")


def make_run_id(spec_id: str, kwargs: Mapping[str, object]) -> str:
    """Canonical run id: the spec id plus sorted ``key=value`` parts."""
    parts = [spec_id]
    for key in sorted(kwargs):
        parts.append(f"{key}={_slug(kwargs[key])}")
    return "~".join(parts)


def request_for(
    spec_id: str,
    kwargs: Optional[Mapping[str, object]] = None,
    run_id: Optional[str] = None,
) -> RunRequest:
    """Build a validated request for one scenario run."""
    spec = get_spec(spec_id)
    validated = spec.validate(kwargs or {})
    items = tuple(sorted(validated.items()))
    return RunRequest(
        spec_id=spec.id,
        kwargs=items,
        run_id=run_id or (spec.id if not items else make_run_id(spec.id, validated)),
    )


def expand_grid(grid: Mapping[str, Sequence[object]]) -> List[Dict[str, object]]:
    """Cartesian product of a parameter grid, in deterministic order.

    Keys are iterated sorted; values in the order given. ``{}`` yields
    one empty point (the scenario's defaults).
    """
    keys = sorted(grid)
    combos = itertools.product(*(tuple(grid[k]) for k in keys))
    return [dict(zip(keys, combo)) for combo in combos]


def _grid_requests(
    spec_id: str,
    grid: Mapping[str, Sequence[object]],
    base_seed: Optional[int] = None,
    replicates: int = 1,
) -> List[RunRequest]:
    """Requests for every grid point (× replicates) of one scenario.

    With ``base_seed`` set, each run gets ``seed`` derived from
    (base_seed, spec id, run index) via :meth:`ScenarioSpec.derive_seed`;
    a ``seed`` axis in the grid itself wins over derivation. Without
    ``base_seed`` and without a seed axis, every replicate runs the
    scenario's default seed (replicates > 1 then only make sense for
    timing, so ``replicates`` requires one of the two).

    Internal: :class:`repro.results.Study` is the public way to build
    grid sweeps.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    spec = get_spec(spec_id)
    if replicates > 1 and base_seed is None and "seed" not in grid:
        raise ValueError("replicates > 1 needs base_seed or a seed axis")
    requests: List[RunRequest] = []
    index = 0
    for point in expand_grid(grid):
        for replicate in range(replicates):
            kwargs = dict(point)
            derived = base_seed is not None and "seed" not in point
            if derived:
                kwargs["seed"] = spec.derive_seed(base_seed, index)
            run_id = make_run_id(spec.id, kwargs)
            # Without a derived per-index seed, replicates of a point
            # share identical kwargs; the suffix keeps run ids unique.
            if replicates > 1 and not derived:
                run_id = f"{run_id}~r{replicate}"
            requests.append(request_for(spec.id, kwargs, run_id=run_id))
            index += 1
    return requests


def catalogue_requests(
    spec_ids: Iterable[str],
    overrides: Optional[Mapping[str, object]] = None,
    strict: bool = True,
) -> Tuple[List[RunRequest], List[str]]:
    """Requests for a list of scenario ids with shared kwarg overrides.

    Aliases collapse onto their primary spec (each harness runs once).
    In ``strict`` mode an override a scenario does not declare raises
    :class:`~repro.experiments.specs.UnknownParameterError`; otherwise it
    is skipped for that scenario and reported in the returned warning
    list (the ``all`` behaviour: ``--duration`` applies where it means
    something).
    """
    overrides = dict(overrides or {})
    requests: List[RunRequest] = []
    warnings: List[str] = []
    seen = set()
    for spec_id in spec_ids:
        spec = get_spec(spec_id)
        if spec.id in seen:
            continue
        seen.add(spec.id)
        kwargs = {}
        for key, value in overrides.items():
            if any(p.name == key for p in spec.params):
                kwargs[key] = value
            elif strict:
                spec.param(key)  # raises UnknownParameterError
            else:
                warnings.append(f"{spec.id}: ignoring undeclared option {key!r}")
        requests.append(request_for(spec.id, kwargs, run_id=spec.id))
    return requests, warnings


def execute_request(request: RunRequest) -> RunRecord:
    """Run one request in this process (no supervision, errors propagate)."""
    spec = get_spec(request.spec_id)
    started = time.perf_counter()
    result = spec.run(**request.kwargs_dict)
    return RunRecord(request, result, time.perf_counter() - started)


#: Pool-worker telemetry channel, installed by the executor initializer.
_WORKER_CHANNEL = None


def _worker_channel_init(channel) -> None:
    """Executor ``initializer``: remember the worker→parent channel."""
    global _WORKER_CHANNEL
    _WORKER_CHANNEL = channel


def _attempt(task: Tuple[RunRequest, Optional[FaultAction], int, Optional[float]], emit=None):
    """One run attempt in either lane; returns a payload, never raises.

    Catching at this one fixed stack depth in both lanes is what makes
    recorded failure tracebacks byte-identical at any ``--jobs`` count:

    * ``("ok", result, wall_s)`` on success;
    * ``("exception", class_name, message, traceback_text, exc, wall_s)``
      when the run raised, ``exc`` being the exception object itself.

    With a telemetry sample interval in the task, ``emit`` receives the
    run's events: ``RunStarted`` on the first attempt, then the samples
    of a :class:`ProbeSession` installed for the spec's duration
    (terminal events are the dispatch loop's to emit — only it knows
    when a run is finally settled).
    """
    request, action, attempt, sample_interval_s = task
    watched = sample_interval_s is not None
    previous = None
    if watched:
        if attempt == 1:
            emit(RunStarted(run_id=request.run_id, spec_id=request.spec_id))
        previous = activate_probe(ProbeSession(emit, request.run_id, sample_interval_s))
    started = time.perf_counter()
    try:
        if action is not None:
            action.trigger(request.run_id, attempt)
        spec = get_spec(request.spec_id)
        result = spec.run(**request.kwargs_dict)
    except Exception as exc:
        wall_s = time.perf_counter() - started
        text = "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        )
        return ("exception", type(exc).__name__, str(exc), text, exc, wall_s)
    finally:
        if watched:
            activate_probe(previous)
    return ("ok", result, time.perf_counter() - started)


def _worker_attempt(task):
    """The process lane's worker entry point: :func:`_attempt`, shipped.

    Events go out through a never-blocking :class:`WorkerPublisher`.
    The tail it still buffers at run end rides home as the payload's
    last element, on the executor's result queue, so it can never lose
    the race against the run being settled, which events still in
    flight on the side channel can. A raised exception travels as its
    pickle blob — checked here to round-trip — or None.
    """
    publisher = WorkerPublisher(_WORKER_CHANNEL) if task[3] is not None else None
    payload = _attempt(task, publisher.emit if publisher is not None else None)
    if payload[0] == "exception":
        try:
            blob = pickle.dumps(payload[4])
            pickle.loads(blob)
        except Exception:
            blob = None
        payload = payload[:4] + (blob,) + payload[5:]
    residual = publisher.take_residual() if publisher is not None else ()
    return payload + (residual,)


def _fatal_error(failure: RunFailure, exc: Optional[BaseException]) -> BaseException:
    """The error a ``fail``-mode failure aborts its batch with."""
    if failure.kind == "timeout":
        return RunTimeoutError(f"run {failure.run_id!r}: {failure.message}")
    if failure.kind == "worker-crash":
        return WorkerCrashError(f"run {failure.run_id!r}: {failure.message}")
    if exc is not None:
        # The original object (inline lane) or its unpickled twin: the
        # run's error propagates as itself.
        return exc
    return WorkerRunError(
        f"{failure.error}: {failure.message}\n{failure.traceback or ''}".rstrip()
    )


class _InlineLane:
    """Attempts in the caller's thread, one at a time, in submission order.

    No executor, no channel, no pickling and no polling: ``collect``
    runs the oldest submitted attempt to completion and emits its
    telemetry straight into the gate. An exception :func:`_attempt` does
    not catch (``KeyboardInterrupt``) still ends the run's event stream
    with ``RunFailed`` before it propagates and aborts the batch.
    """

    parallel = False

    def __init__(self, gate: Optional[RunEventGate]):
        self.gate = gate
        self.queue = deque()

    def submit(self, position: int, task, quarantine: bool = False) -> None:
        self.queue.append((position, task))

    def busy(self) -> bool:
        return bool(self.queue)

    def collect(self):
        position, task = self.queue.popleft()
        gate = self.gate
        try:
            payload = _attempt(task, gate.emit if gate is not None else None)
        except BaseException as exc:
            if gate is not None:
                gate.emit(
                    RunFailed(
                        run_id=task[0].run_id,
                        error=type(exc).__name__,
                        message=str(exc),
                    )
                )
            raise
        return [(position, payload)]

    def close(self, aborted: bool) -> None:
        pass


class _Pool:
    """One executor plus the attempts currently living in it."""

    __slots__ = ("executor", "workers", "tasks")

    def __init__(self, executor: ProcessPoolExecutor, workers: int):
        self.executor = executor
        self.workers = workers
        # future -> (position, task); insertion order is submission
        # order, which is the order the executor dispatches tasks in.
        self.tasks: Dict[object, Tuple[int, tuple]] = {}


#: Process-lane poll granularity (seconds): an upper bound on how long a
#: completion, crash or timeout goes unnoticed, not a scheduling unit —
#: ``wait`` returns the moment a future resolves.
_POLL_S = 0.05


class _ProcessLane:
    """Supervised attempts in worker processes.

    Attempts run in the runner's persistent main pool, or — for suspects
    and for retries of crashed or timed-out runs — in a one-worker
    quarantine pool that lives for one batch. A worker death breaks the
    whole executor (``BrokenProcessPool``), so the lane rebuilds it and
    sorts the unfinished runs: when exactly one could have been on a
    worker, that run is charged with the crash; when several could (the
    ambiguous case), each suspect re-runs alone in the quarantine pool,
    where sole occupancy attributes the next crash exactly. Runs no
    worker can have picked up are resubmitted without being charged.
    ``run_timeout`` is enforced the same way: the overdue run's pool is
    killed deliberately and only the overdue run is charged. Charged
    crashes and timeouts reach the dispatch loop as payloads of their
    own kind.
    """

    parallel = True

    def __init__(self, runner: "SweepRunner", gate, run_timeout: Optional[float]):
        self.runner = runner
        self.gate = gate
        self.run_timeout = run_timeout
        self.pools: Dict[str, _Pool] = {}
        self.started: Dict[int, float] = {}  # position -> first seen on a worker
        self.timed_out = set()  # positions whose pool we killed on purpose
        self.outbox: List[Tuple[int, tuple]] = []

    def busy(self) -> bool:
        return bool(self.outbox) or any(pool.tasks for pool in self.pools.values())

    def submit(self, position: int, task, quarantine: bool = False) -> None:
        name = "quarantine" if quarantine else "main"
        for _ in range(2):
            pool = self.pools.get(name)
            if pool is None:
                if quarantine:
                    pool = _Pool(self.runner._make_executor(1), 1)
                else:
                    pool = _Pool(self.runner._ensure_executor(), self.runner.jobs)
                self.pools[name] = pool
            self.started.pop(position, None)
            self.timed_out.discard(position)
            try:
                future = pool.executor.submit(_worker_attempt, task)
            except BrokenExecutor:
                # A worker died while idle; rebuild the pool once.
                self._handle_break(name)
                continue
            pool.tasks[future] = (position, task)
            return
        raise WorkerCrashError(  # pragma: no cover - two breaks in a row
            "worker pool repeatedly broken on submit"
        )

    def collect(self):
        """Wait up to one poll for completions; return settled payloads."""
        futures = [f for pool in self.pools.values() for f in pool.tasks]
        done = set()
        if futures:
            timeout = 0 if self.outbox else _POLL_S
            done, _ = wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
        self._drain()
        now = time.monotonic()
        for pool in self.pools.values():
            # The executor dispatches FIFO, so the earliest unfinished
            # submissions — at most one per worker — are the runs
            # actually on a worker right now. (A future's own running()
            # flag over-reports: it flips as soon as the task enters the
            # call queue.)
            in_flight = [f for f in pool.tasks if not f.done()]
            for future in in_flight[: pool.workers]:
                self.started.setdefault(pool.tasks[future][0], now)
        broken: List[str] = []
        for name, pool in list(self.pools.items()):
            for future in [f for f in done if f in pool.tasks]:
                try:
                    payload = future.result()
                except (BrokenExecutor, CancelledError, OSError):
                    broken.append(name)
                    break
                self._settle(pool.tasks.pop(future)[0], payload)
        for name in broken:
            self._handle_break(name)
        if self.run_timeout is not None:
            now = time.monotonic()
            for pool in list(self.pools.values()):
                # A future that resolved since the wait above is no longer
                # running: killing its pool now would void its result.
                overdue = [
                    position
                    for future, (position, _) in pool.tasks.items()
                    if not future.done()
                    and position in self.started
                    and position not in self.timed_out
                    and now - self.started[position] > self.run_timeout
                ]
                if overdue:
                    self.timed_out.update(overdue)
                    # Killing the pool breaks it; the next collect routes
                    # it through _handle_break, which charges only the
                    # overdue run(s).
                    self.runner._kill_workers(pool.executor)
        outcomes, self.outbox = self.outbox, []
        return outcomes

    def close(self, aborted: bool) -> None:
        """End the batch: drop the quarantine pool, and the main pool too
        if the batch aborted — a finished batch leaves it to the runner."""
        for name in ("quarantine", "main"):
            pool = self.pools.pop(name, None)
            if pool is None or (name == "main" and not aborted):
                continue
            if aborted:
                if pool.executor is self.runner._executor:
                    self.runner._executor = None
                self.runner._kill_workers(pool.executor)
            try:
                pool.executor.shutdown(wait=not aborted, cancel_futures=True)
            except Exception:  # pragma: no cover - already torn down
                pass

    def _drain(self, grace: bool = False) -> None:
        """Pull what the workers have published so far through the gate.

        Called every poll and — with ``grace`` — decisively before a run
        is settled: a batch the worker flushed just before returning can
        still sit in the channel's feeder thread when the result future
        completes, so wait a beat and drain once more before the loop
        seals the run's stream with its terminal event.
        """
        channel = self.runner._channel
        if self.gate is not None and channel is not None:
            drain_channel(channel, self.gate.emit)
            if grace:
                time.sleep(0.002)
                drain_channel(channel, self.gate.emit)

    def _settle(self, position: int, payload) -> None:
        # Older events first (the side channel), then the tail the
        # worker carried home inside the payload itself.
        self._drain(grace=True)
        if self.gate is not None:
            for event in payload[-1]:
                self.gate.emit(event)
        payload = payload[:-1]
        if payload[0] == "exception" and payload[4] is not None:
            payload = payload[:4] + (pickle.loads(payload[4]),) + payload[5:]
        self.outbox.append((position, payload))

    def _charge(self, position: int, kind: str, error: str, message: str, wall_s: float):
        self._drain(grace=True)
        self.outbox.append((position, (kind, error, message, None, None, wall_s)))

    def _handle_break(self, name: str) -> None:
        pool = self.pools.pop(name, None)
        if pool is None:  # pragma: no cover - already handled
            return
        if pool.executor is self.runner._executor:
            self.runner._executor = None
        # Give the executor's manager thread a moment to resolve every
        # pending future, then harvest results that landed before the
        # break — they are genuine completions.
        wait(list(pool.tasks), timeout=5.0)
        try:
            pool.executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - already torn down
            pass
        crashed: List[Tuple[int, tuple]] = []  # submission order
        for future, (position, task) in list(pool.tasks.items()):
            try:
                payload = future.result(timeout=0)
            except BaseException:
                crashed.append((position, task))
            else:
                self._settle(position, payload)
        pool.tasks.clear()
        quarantine = name == "quarantine"
        if any(position in self.timed_out for position, _ in crashed):
            # We killed this pool to enforce run_timeout: charge the
            # overdue run(s); co-running and queued runs are innocent
            # and simply resubmit.
            for position, task in crashed:
                if position in self.timed_out:
                    self.timed_out.discard(position)
                    self._charge(
                        position,
                        "timeout",
                        "RunTimeoutError",
                        f"run exceeded the per-run timeout ({self.run_timeout:g} s)",
                        self.run_timeout,
                    )
                else:
                    self.submit(position, task, quarantine)
            return
        # The executor dispatches submissions FIFO, so the culprit is
        # among the earliest-submitted unfinished tasks, at most one per
        # worker. The runs a poll saw in flight are not enough: once a
        # co-runner finishes, its worker takes the next run, which can
        # crash before any poll sees it start.
        suspects, queued = crashed[: pool.workers], crashed[pool.workers :]
        if len(suspects) == 1:
            position = suspects[0][0]
            now = time.monotonic()
            self._charge(
                position,
                "worker-crash",
                "WorkerCrashError",
                "worker process died (segfault, OOM kill, or os._exit)",
                now - self.started.get(position, now),
            )
        else:
            # Ambiguous: several runs were in flight when the pool
            # broke. Re-run each alone in the quarantine pool, where
            # sole occupancy attributes the next crash exactly —
            # innocents complete there without ever being charged.
            for position, task in suspects:
                self.submit(position, task, quarantine=True)
        for position, task in queued:
            self.submit(position, task, quarantine)


class SweepRunner:
    """Run a batch of requests inline or over processes, deterministically.

    :meth:`run` is one dispatch loop over one of two lanes. The process
    lane is taken when ``jobs > 1`` and more than one run is pending, or
    when supervision needs a separate process (a ``run_timeout``, or a
    fault plan that can crash the worker); otherwise the inline lane
    runs every attempt in the caller's thread. Completions may arrive in
    any order, but records are *released* — and ``on_record`` fired — in
    request order, so progress reporting and exports stay deterministic.

    The process lane's main executor is created on first use and *kept*
    across ``run()`` calls, so a caller issuing several sweeps (the
    sweep service, ``Study.run(runner=...)``, the benchmark suite) pays
    process spin-up once instead of per batch. Only a batch that aborts
    — a ``fail``-mode failure, Ctrl-C, a raising ``on_record`` — kills
    it, so no worker goes on computing runs nobody will collect. Close
    the runner (context manager or :meth:`close`) to terminate and reap
    the workers; a garbage-collected runner terminates them as a
    fallback.
    """

    def __init__(self, jobs: int = 1, mp_context: Optional[str] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self.mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        # Worker→parent telemetry channel; created with the first
        # executor (initargs are fixed at pool construction) and shared
        # by every pool, so late-attached telemetry still has transport.
        self._channel = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC fallback
        # May run during interpreter shutdown, where even the machinery
        # this method needs (module globals, exception classes) can be
        # half torn down — swallow absolutely everything.
        try:
            self.close()
        except BaseException:
            pass

    @staticmethod
    def _kill_workers(executor) -> None:
        """Terminate an executor's worker processes and reap them.

        Never raises. Joining matters to the caller's accounting: a
        terminated but unreaped worker is a zombie whose resource usage
        (``RUSAGE_CHILDREN``) the parent never sees.
        """
        processes = list((getattr(executor, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # pragma: no cover - already dead / shutdown
                pass
        for process in processes:
            try:
                process.join(timeout=5.0)
            except Exception:  # pragma: no cover - already reaped / shutdown
                pass

    def close(self) -> None:
        """Terminate and reap the persistent worker pool (idempotent).

        Safe to call from ``__del__`` at interpreter shutdown: a runner
        collected that late may find the executor machinery's module
        globals already set to ``None``, which surfaces as
        ``AttributeError``/``TypeError`` from ``shutdown`` — the
        executor is dropped regardless and the OS reaps the workers.
        """
        executor = getattr(self, "_executor", None)
        self._executor = None
        if executor is not None:
            try:
                self._kill_workers(executor)
                executor.shutdown(wait=False, cancel_futures=True)
            except (AttributeError, TypeError):  # pragma: no cover - shutdown races
                pass
        channel = getattr(self, "_channel", None)
        self._channel = None
        if channel is not None:
            try:
                channel.cancel_join_thread()
                channel.close()
            except Exception:  # pragma: no cover - shutdown races
                pass

    def _make_executor(self, workers: int) -> ProcessPoolExecutor:
        context = multiprocessing.get_context(self.mp_context)
        if self._channel is None:
            # Bounded so a stalled parent can never make workers
            # accumulate unbounded queue memory; the publisher side drops
            # oldest droppable events instead of blocking when it fills.
            self._channel = context.Queue(256)
        # The channel rides along unconditionally: initargs are fixed at
        # pool construction, and the persistent executor must serve
        # later run() calls that do attach telemetry. Workers only touch
        # it when a task carries a telemetry sample interval.
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_worker_channel_init,
            initargs=(self._channel,),
        )

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """The persistent main-pool executor."""
        if self._executor is None:
            self._executor = self._make_executor(self.jobs)
        return self._executor

    def run(
        self,
        requests: Sequence[RunRequest],
        on_record: Optional[Callable[[RunRecord], None]] = None,
        store=None,
        policy: Optional[object] = None,
        run_timeout: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        telemetry=None,
    ) -> List[RunRecord]:
        """Execute ``requests`` and return their records, in request order.

        With ``store`` (a :class:`~repro.results.store.SqliteStore`),
        requests whose content key is already present come back as cache
        hits (``record.cached``) without executing, every freshly
        executed run is checkpointed into the store the moment it
        finishes, and a fully completed batch is finalized — so a killed
        sweep re-issued against the same store resumes instead of
        restarting, with artefacts byte-identical to an uninterrupted
        run (runs are pure functions of their requests). ``on_record``
        still fires in request order, for hits and fresh runs alike.

        ``policy`` (an :class:`ErrorPolicy` or its string spelling)
        governs failures; failed runs under ``continue`` come back as
        records with ``record.failure`` set and are checkpointed into
        the store as failure records, so a resume retries exactly the
        failed/missing runs. ``run_timeout`` kills any single run
        exceeding that many wall seconds (forces the process lane even
        at ``jobs=1``). ``faults`` injects a deterministic
        :class:`~repro.experiments.faults.FaultPlan`; without one, no
        run is faulted.

        ``telemetry`` (a :class:`~repro.telemetry.hub.TelemetryHub` with
        at least one listener) streams live run events through a
        :class:`~repro.telemetry.hub.RunEventGate`, so every run in the
        batch — cached hits included — produces exactly
        ``RunStarted (RunProgress|MetricSample)* (RunFinished|RunFailed)``.
        Telemetry is strictly off the export path: records, stores and
        exported bytes are identical with it on or off.
        """
        if isinstance(policy, str):
            policy = ErrorPolicy.parse(policy)
        if policy is None:
            policy = ErrorPolicy()
        if run_timeout is not None and run_timeout <= 0:
            raise ValueError("run_timeout must be positive")
        counts = Counter(r.run_id for r in requests)
        dupes = sorted(run_id for run_id, count in counts.items() if count > 1)
        if dupes:
            raise ValueError("duplicate run ids in batch: " + ", ".join(dupes))
        gate = None
        sample_interval_s = None
        if telemetry is not None and telemetry.attached:
            gate = RunEventGate(telemetry.emit)
            sample_interval_s = telemetry.sample_interval_s
        if self._channel is not None:
            # Discard stragglers a previous (aborted) batch left queued;
            # their runs' gates are gone and their ids would pollute
            # this batch's streams.
            drain_channel(self._channel, lambda event: None)
        cached: Dict[int, RunRecord] = {}
        actions: Dict[int, Optional[FaultAction]] = {}  # pending position -> fault
        for position, request in enumerate(requests):
            hit = store.get(request) if store is not None else None
            if hit is not None:
                cached[position] = hit
            else:
                actions[position] = (
                    faults.action_for(request.run_id, position) if faults else None
                )
        needs_worker = run_timeout is not None or any(
            action is not None and action.kind == "crash" for action in actions.values()
        )
        if (self.jobs == 1 or len(actions) <= 1) and not needs_worker:
            lane = _InlineLane(gate)
        else:
            lane = _ProcessLane(self, gate, run_timeout)

        attempts = dict.fromkeys(actions, 1)
        fresh = deque(actions)  # pending positions not yet submitted
        backlog: List[Tuple[float, int, bool]] = []  # (due, position, quarantine)
        # position -> RunRecord, or the error a fail-mode failure raises
        # once release reaches the failed run's position — failures can
        # complete out of request order, earlier runs release first.
        ready: Dict[int, object] = {}
        records: List[RunRecord] = []

        def submit(position: int, quarantine: bool = False) -> None:
            task = (requests[position], actions[position], attempts[position], sample_interval_s)
            lane.submit(position, task, quarantine)

        def settle(position: int, payload) -> None:
            request = requests[position]
            if payload[0] == "ok":
                record = RunRecord(request, payload[1], payload[2])
                if store is not None:
                    store.put(record)
                if gate is not None:
                    gate.emit(RunFinished(run_id=request.run_id))
                ready[position] = record
                return
            kind, error, message, tb, exc, wall_s = payload
            attempt = attempts[position]
            if attempt <= policy.retries:
                attempts[position] = attempt + 1
                # Exception retries go back to the main pool; timeout and
                # crash retries run quarantined so a persistently poison
                # run cannot keep taking the shared pool down.
                due = time.monotonic() + policy.backoff_s(attempt)
                backlog.append((due, position, kind != "exception"))
                return
            if gate is not None:
                gate.emit(
                    RunFailed(
                        run_id=request.run_id,
                        failure_kind=kind,
                        error=error,
                        message=message,
                    )
                )
            failure = RunFailure(
                run_id=request.run_id,
                spec_id=request.spec_id,
                kwargs=request.kwargs_dict,
                kind=kind,
                error=error,
                message=message,
                traceback=tb,
                attempts=attempt,
                wall_s=wall_s or 0.0,
            )
            if policy.mode == "fail":
                ready[position] = _fatal_error(failure, exc)
                return
            if store is not None:
                store.put_failure(request, failure)
            ready[position] = RunRecord(request, None, failure.wall_s, failure=failure)

        try:
            while True:
                # Release every record the cursor can reach, in request
                # order; a cache hit never executes, so its stream is the
                # immediate two-event form, emitted here.
                while len(records) < len(requests):
                    position = len(records)
                    if position in cached:
                        record = cached[position]
                        if gate is not None:
                            request = requests[position]
                            gate.emit(
                                RunStarted(run_id=request.run_id, spec_id=request.spec_id)
                            )
                            gate.emit(RunFinished(run_id=request.run_id, cached=True))
                    elif position in ready:
                        record = ready.pop(position)
                        if isinstance(record, BaseException):
                            raise record
                    else:
                        break
                    if on_record is not None:
                        on_record(record)
                    records.append(record)
                if len(records) == len(requests):
                    break
                now = time.monotonic()
                due = sorted((e for e in backlog if e[0] <= now), key=lambda e: e[1])
                backlog[:] = [e for e in backlog if e[0] > now]
                for _, position, quarantine in due:
                    submit(position, quarantine)
                # The process lane takes the whole batch up front; the
                # inline lane one run at a time, retries before the next.
                while fresh and (lane.parallel or not (lane.busy() or backlog)):
                    submit(fresh.popleft())
                if not lane.busy():
                    if not backlog:  # pragma: no cover - invariant
                        raise RuntimeError("sweep dispatch stalled with no work in flight")
                    time.sleep(max(0.0, min(e[0] for e in backlog) - now))
                    continue
                for position, payload in lane.collect():
                    settle(position, payload)
        except BaseException:
            lane.close(aborted=True)
            raise
        lane.close(aborted=False)
        if store is not None:
            store.finalize(records)
        return records


def default_jobs() -> int:
    """Worker count for ``--jobs 0``: every core the container grants."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1

"""Pluggable result stores: where sweep results live, decoupled from what they are.

A :class:`ResultStore` keyed by *content* — the pair ``(spec id,
canonical effective parameters)``, seed included — holds one
:class:`~repro.experiments.runner.RunRecord` per distinct run. The sweep
runner checkpoints every completed run into the store as it finishes and
skips any request whose content key is already present, which gives two
properties for free:

* **resume** — a killed ``sweep`` re-issued against the same store picks
  up where it left off instead of restarting from zero, and
* **dedupe** — identical requests (even spelled differently, e.g. with a
  default elided vs. set explicitly) become cache hits.

Two backends implement the interface:

* :class:`DirectoryStore` — the compatibility path: a store *is* a
  ``--out`` export tree, byte-identical to what the CLI has always
  written. Mid-sweep state lives in a ``.sweep-checkpoint.json`` sidecar
  that :meth:`~DirectoryStore.finalize` removes, so a completed (or
  completed-after-resume) tree is indistinguishable from an
  uninterrupted export.
* :class:`SqliteStore` — the scale path: one row per run in a single
  schema-versioned sqlite file, identity and scalar metrics in indexed
  columns, series/tables as compact compressed blobs. Aggregation verbs
  (``scalars_frame``, :func:`repro.results.compare`) stream over the
  columnar side without ever materialising payloads.

Determinism contract: runs are pure functions of their requests, so a
resumed sweep's store contents (see :meth:`ResultStore.canonical_dump`)
and any re-export through the directory path are identical to an
uninterrupted run's at any ``--jobs`` count —
``tests/test_smoke.py`` locks this in.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import zlib
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.experiments.common import ExperimentResult
from repro.experiments.specs import ParameterValueError, get_spec
from repro.results.types import (
    ResultLoadError,
    ResultSet,
    RunResult,
    _param_matches,
)

#: Schema version of the sqlite backend; bumped on layout changes.
SQLITE_SCHEMA = 1

#: Sidecar file a DirectoryStore keeps while a sweep is in flight.
CHECKPOINT_SIDECAR = ".sweep-checkpoint.json"

#: URL schemes ``open_store`` understands: scheme -> backend class name.
STORE_SCHEMES = ("sqlite", "dir")


def canonical_params(spec_id: str, kwargs: Mapping[str, object]) -> Dict[str, object]:
    """The effective parameter dict of a request: defaults overlaid by kwargs.

    Folding the declared defaults in makes the content key independent
    of *spelling*: ``seed=11`` set explicitly and ``seed`` left at its
    default produce the same key, so they dedupe onto one stored run.
    """
    spec = get_spec(spec_id)
    params = spec.defaults()
    params.update(spec.validate(kwargs))
    return params


def content_key(spec_id: str, kwargs: Mapping[str, object]) -> str:
    """The run-identity key: sha256 of (spec id, canonical params, seed).

    The seed participates through the canonical params (every scenario
    declares it), so two runs differing only by seed never collide.
    """
    spec = get_spec(spec_id)
    body = json.dumps(
        {"spec": spec.id, "params": canonical_params(spec.id, kwargs)},
        sort_keys=True,
        default=list,
    )
    return hashlib.sha256(body.encode()).hexdigest()


def request_key(request) -> str:
    """Content key of one :class:`~repro.experiments.runner.RunRequest`."""
    return content_key(request.spec_id, request.kwargs_dict)


def _restore_params(params: Mapping[str, object]) -> Dict[str, object]:
    # Same rule as ExperimentResult.from_dict: sequence-kind parameters
    # are tuples in memory, JSON can only spell lists.
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in params.items()
    }


def _params_json(params: Mapping[str, object]) -> str:
    return json.dumps(dict(params), sort_keys=True, default=list)


class ResultStore:
    """The store interface: put/get/iter/query by run identity.

    Subclasses implement the storage-specific primitives; the shared
    verbs (:meth:`result_set`, :meth:`canonical_dump`, containment) are
    defined here. Stores are context managers; :meth:`close` is
    idempotent.
    """

    path: str

    # -- storage primitives (backend-specific) ------------------------

    def put(self, record) -> str:
        """Checkpoint one completed run; returns its content key."""
        raise NotImplementedError

    def put_failure(self, request, failure) -> str:
        """Checkpoint one run's :class:`RunFailure`; returns its content key.

        A failure record is *not* a cached result — :meth:`get` keeps
        missing for that request, so a resume re-executes exactly the
        failed (and never-ran) runs while cache hits are still served
        first. A later successful :meth:`put` for the same content key
        supersedes the failure record.
        """
        raise NotImplementedError

    def failures(self) -> List["RunFailure"]:
        """Every stored failure record, sorted by run id."""
        raise NotImplementedError

    def get(self, request):
        """The cached record for this request, or ``None``.

        A hit comes back as a :class:`~repro.experiments.runner.RunRecord`
        carrying the *incoming* request (so run ids follow the current
        sweep's naming) with ``cached=True`` and the originally measured
        wall seconds.
        """
        raise NotImplementedError

    def keys(self) -> List[str]:
        """Every stored content key, sorted."""
        raise NotImplementedError

    def index(self) -> Iterator[Dict[str, object]]:
        """Stream light index entries (no payloads), sorted by run id.

        Each entry has ``content_key``, ``run_id``, ``spec_id``,
        ``kwargs``, ``parameters``, ``scalars`` and ``wall_s``.
        """
        raise NotImplementedError

    def load_result(self, key: str) -> ExperimentResult:
        """Materialise the full result payload of one stored run."""
        raise NotImplementedError

    def finalize(self, records) -> None:
        """Mark a completed batch (backend-specific bookkeeping)."""

    def close(self) -> None:
        """Release backend resources; the store must not be used after."""

    # -- shared verbs --------------------------------------------------

    def __contains__(self, request) -> bool:
        key = request if isinstance(request, str) else request_key(request)
        return key in set(self.keys())

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.keys())

    def result_set(self, **params: object) -> ResultSet:
        """The store's runs as a :class:`~repro.results.ResultSet`.

        Runs are ordered by run id. Parameters and scalar metrics come
        from the store index; payloads load lazily per run on first
        access (:class:`SqliteStore`) or eagerly where the backend has
        no columnar side (:class:`DirectoryStore`). ``params`` filter
        CLI-tolerantly before anything is materialised.
        """
        runs: List[RunResult] = []
        for entry in self.index():
            if not all(
                _param_matches(entry["parameters"].get(name), value)
                for name, value in params.items()
            ):
                continue
            runs.append(self._entry_run(entry))
        return ResultSet(runs, failures=tuple(self.failures()))

    def _entry_run(self, entry: Dict[str, object]) -> RunResult:
        key = entry["content_key"]
        return RunResult(
            None,
            run_id=entry["run_id"],
            spec_id=entry["spec_id"],
            kwargs=entry["kwargs"],
            wall_s=entry["wall_s"],
            loader=lambda key=key: self.load_result(key),
            parameters=entry["parameters"],
            scalars=entry["scalars"],
        )

    def canonical_dump(self) -> Dict[str, object]:
        """The store's full logical contents as one canonical document.

        Two stores hold the same results exactly when their dumps are
        equal — the backend- and history-independent equality the CI
        resume smoke compares (raw sqlite bytes depend on page-allocation
        history; this does not).
        """
        runs: Dict[str, object] = {}
        for entry in self.index():
            result = self.load_result(entry["content_key"])
            runs[entry["run_id"]] = {
                "content_key": entry["content_key"],
                "spec_id": entry["spec_id"],
                "kwargs": json.loads(_params_json(entry["kwargs"])),
                "result": json.loads(
                    json.dumps(result.to_dict(), sort_keys=True, default=list)
                ),
            }
        failures = {
            failure.run_id: json.loads(
                json.dumps(failure.to_dict(), sort_keys=True, default=list)
            )
            for failure in self.failures()
        }
        return {"runs": runs, "failures": failures}

    def digest(self) -> str:
        """sha256 over :meth:`canonical_dump` (cheap equality check)."""
        body = json.dumps(self.canonical_dump(), sort_keys=True)
        return hashlib.sha256(body.encode()).hexdigest()


class DirectoryStore(ResultStore):
    """A store that *is* a ``--out`` export tree (the compatibility path).

    ``put`` exports the run directory immediately (the checkpoint) and
    records its identity in the sidecar; ``finalize`` writes the
    manifest + EXPERIMENTS.md through the same
    :func:`~repro.experiments.export.export_records` path the CLI has
    always used and removes the sidecar — so a finished tree is
    byte-identical to a plain ``--out`` export of the same batch. One
    DirectoryStore corresponds to one sweep's export tree (the manifest
    indexes the last finalized batch); use :class:`SqliteStore` to pool
    many studies in one store.
    """

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)

    # -- identity bookkeeping -----------------------------------------

    @property
    def _sidecar_path(self) -> str:
        return os.path.join(self.path, CHECKPOINT_SIDECAR)

    def _load_sidecar(self) -> Dict[str, Dict[str, Dict[str, object]]]:
        try:
            with open(self._sidecar_path) as handle:
                data = json.load(handle)
            return {
                "runs": dict(data.get("runs", {})),
                "failures": dict(data.get("failures", {})),
            }
        except FileNotFoundError:
            return {"runs": {}, "failures": {}}
        except (json.JSONDecodeError, AttributeError):
            # A torn sidecar write: every checkpoint it indexed is
            # unreachable and simply re-runs.
            return {"runs": {}, "failures": {}}

    def _entries(self) -> Dict[str, Dict[str, object]]:
        """content key -> identity entry, from sidecar and/or manifest."""
        entries = dict(self._load_sidecar()["runs"])
        manifest_path = os.path.join(self.path, "manifest.json")
        if os.path.isfile(manifest_path):
            try:
                with open(manifest_path) as handle:
                    manifest = json.load(handle)
            except json.JSONDecodeError:
                return entries
            timing = manifest.get("timing", {}).get("runs", {})
            for run in manifest.get("runs", []):
                key = content_key(run["experiment"], run.get("kwargs", {}))
                entries.setdefault(
                    key,
                    {
                        "run_id": run["run_id"],
                        "spec_id": run["experiment"],
                        "kwargs": run.get("kwargs", {}),
                        "wall_s": timing.get(run["run_id"], {}).get("wall_s", 0.0),
                    },
                )
        return entries

    def _write_sidecar(
        self, data: Dict[str, Dict[str, Dict[str, object]]]
    ) -> None:
        tmp = self._sidecar_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(data, handle, sort_keys=True, default=list)
            handle.write("\n")
        os.replace(tmp, self._sidecar_path)

    # -- ResultStore primitives ---------------------------------------

    def put(self, record) -> str:
        from repro.experiments.export import export_result

        key = request_key(record.request)
        export_result(record.result, self.path, record.request.run_id)
        # Sidecar last: a kill between the two writes leaves the run dir
        # unindexed, so resume re-runs (and byte-identically rewrites) it.
        sidecar = self._load_sidecar()
        sidecar["runs"][key] = {
            "run_id": record.request.run_id,
            "spec_id": record.request.spec_id,
            "kwargs": record.request.kwargs_dict,
            "wall_s": record.wall_s,
        }
        # A success supersedes any earlier failure record (retried resume).
        sidecar["failures"].pop(key, None)
        self._write_sidecar(sidecar)
        return key

    def put_failure(self, request, failure) -> str:
        key = request_key(request)
        sidecar = self._load_sidecar()
        # to_dict() is the deterministic form; wall seconds ride along in
        # the sidecar only (never exported).
        sidecar["failures"][key] = dict(failure.to_dict(), wall_s=failure.wall_s)
        self._write_sidecar(sidecar)
        return key

    def failures(self) -> List["RunFailure"]:
        from repro.experiments.runner import RunFailure

        entries = self._load_sidecar()["failures"]
        records = [RunFailure.from_dict(entry) for entry in entries.values()]
        return sorted(records, key=lambda f: f.run_id)

    def get(self, request):
        from repro.experiments.runner import RunRecord

        entry = self._entries().get(request_key(request))
        if entry is None:
            return None
        try:
            run = RunResult.load(
                os.path.join(self.path, entry["run_id"]), run_id=entry["run_id"]
            )
        except ResultLoadError:
            return None  # torn checkpoint: treat as absent, re-run
        return RunRecord(request, run.result, entry.get("wall_s", 0.0), cached=True)

    def keys(self) -> List[str]:
        return sorted(self._entries())

    def index(self) -> Iterator[Dict[str, object]]:
        entries = self._entries()
        for key in sorted(entries, key=lambda k: entries[k]["run_id"]):
            entry = entries[key]
            run = RunResult.load(
                os.path.join(self.path, entry["run_id"]), run_id=entry["run_id"]
            )
            yield {
                "content_key": key,
                "run_id": entry["run_id"],
                "spec_id": entry["spec_id"],
                "kwargs": _restore_params(dict(entry.get("kwargs", {}))),
                "parameters": run.parameters,
                "scalars": run.scalars,
                "wall_s": entry.get("wall_s", 0.0),
                "_result": run.result,
            }

    def _entry_run(self, entry: Dict[str, object]) -> RunResult:
        # No columnar side to stream from: the run directory was already
        # read to build the entry, so wrap it eagerly.
        return RunResult(
            entry["_result"],
            run_id=entry["run_id"],
            spec_id=entry["spec_id"],
            kwargs=entry["kwargs"],
            wall_s=entry["wall_s"],
        )

    def load_result(self, key: str) -> ExperimentResult:
        entry = self._entries()[key]
        return RunResult.load(
            os.path.join(self.path, entry["run_id"]), run_id=entry["run_id"]
        ).result

    def finalize(self, records) -> None:
        """Write manifest + index for the completed batch, drop the sidecar.

        With failures present, ``failures.json`` is written alongside the
        manifest and the sidecar is *kept* — it carries the failure
        records' identity keys, and a tree with failed runs is still
        in flight until a resume turns them into runs. A fully successful
        batch removes both, leaving the tree byte-identical to an
        uninterrupted export.
        """
        from repro.experiments.export import export_failures, export_records

        export_records(
            [r for r in records if getattr(r, "failure", None) is None],
            self.path,
        )
        failures = self.failures()
        export_failures(failures, self.path)
        if failures:
            return
        try:
            os.remove(self._sidecar_path)
        except FileNotFoundError:
            pass


class SqliteStore(ResultStore):
    """A single-file columnar store (the million-row aggregation path).

    One ``runs`` row per distinct content key: identity columns indexed,
    the full result payload as one zlib-compressed canonical-JSON blob.
    Scalar metrics live in a separate ``scalars`` table, one row per
    (run, metric), numerically indexed — ``scalars_frame``/``compare``
    over :meth:`result_set` read only these columns and never touch the
    blobs. Each ``put`` commits, so every completed run survives a
    process kill (``synchronous=OFF``: crash-of-the-process safe, which
    is the resume contract; machine-crash durability is not).
    """

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(path)
        self._conn.execute("PRAGMA synchronous=OFF")
        self._init_schema()

    def _init_schema(self) -> None:
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta(key TEXT PRIMARY KEY, value TEXT)"
            )
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS runs(
                    content_key TEXT PRIMARY KEY,
                    run_id TEXT NOT NULL,
                    spec_id TEXT NOT NULL,
                    kwargs TEXT NOT NULL,
                    parameters TEXT NOT NULL,
                    wall_s REAL NOT NULL,
                    payload BLOB NOT NULL
                )
                """
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS runs_by_run_id ON runs(run_id)"
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS runs_by_spec ON runs(spec_id)"
            )
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS scalars(
                    content_key TEXT NOT NULL,
                    name TEXT NOT NULL,
                    num REAL,
                    value TEXT NOT NULL,
                    PRIMARY KEY(content_key, name)
                ) WITHOUT ROWID
                """
            )
            self._conn.execute(
                "CREATE INDEX IF NOT EXISTS scalars_by_name ON scalars(name, num)"
            )
            self._conn.execute(
                """
                CREATE TABLE IF NOT EXISTS failures(
                    content_key TEXT PRIMARY KEY,
                    run_id TEXT NOT NULL,
                    spec_id TEXT NOT NULL,
                    kwargs TEXT NOT NULL,
                    kind TEXT NOT NULL,
                    error TEXT NOT NULL,
                    message TEXT NOT NULL,
                    traceback TEXT,
                    attempts INTEGER NOT NULL,
                    wall_s REAL NOT NULL
                )
                """
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES('schema', ?)",
                (str(SQLITE_SCHEMA),),
            )
        stored = self._conn.execute(
            "SELECT value FROM meta WHERE key='schema'"
        ).fetchone()
        if stored and int(stored[0]) != SQLITE_SCHEMA:
            raise ResultLoadError(
                f"{self.path}: store schema v{stored[0]} != supported "
                f"v{SQLITE_SCHEMA}",
                artifact=self.path,
            )

    # -- ResultStore primitives ---------------------------------------

    def put(self, record) -> str:
        key = request_key(record.request)
        payload = zlib.compress(
            json.dumps(
                record.result.to_dict(), sort_keys=True, default=list
            ).encode()
        )
        scalars = RunResult(
            record.result, run_id=record.request.run_id
        ).scalars
        with self._conn:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO runs"
                "(content_key, run_id, spec_id, kwargs, parameters, wall_s, payload)"
                " VALUES(?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    record.request.run_id,
                    record.request.spec_id,
                    _params_json(record.request.kwargs_dict),
                    _params_json(record.result.parameters),
                    float(record.wall_s),
                    payload,
                ),
            )
            if cursor.rowcount:
                self._conn.executemany(
                    "INSERT INTO scalars(content_key, name, num, value)"
                    " VALUES(?, ?, ?, ?)",
                    [
                        (
                            key,
                            name,
                            float(value)
                            if isinstance(value, (int, float))
                            and not isinstance(value, bool)
                            else None,
                            json.dumps(value, default=list),
                        )
                        for name, value in scalars.items()
                    ],
                )
            # A success supersedes any earlier failure record.
            self._conn.execute("DELETE FROM failures WHERE content_key=?", (key,))
        return key

    def put_failure(self, request, failure) -> str:
        key = request_key(request)
        with self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO failures"
                "(content_key, run_id, spec_id, kwargs, kind, error, message,"
                " traceback, attempts, wall_s)"
                " VALUES(?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    failure.run_id,
                    failure.spec_id,
                    _params_json(failure.kwargs),
                    failure.kind,
                    failure.error,
                    failure.message,
                    failure.traceback,
                    int(failure.attempts),
                    float(failure.wall_s),
                ),
            )
        return key

    def failures(self) -> List["RunFailure"]:
        from repro.experiments.runner import RunFailure

        rows = self._conn.execute(
            "SELECT run_id, spec_id, kwargs, kind, error, message, traceback,"
            " attempts, wall_s FROM failures ORDER BY run_id"
        )
        return [
            RunFailure(
                run_id=row[0],
                spec_id=row[1],
                kwargs=_restore_params(json.loads(row[2])),
                kind=row[3],
                error=row[4],
                message=row[5],
                traceback=row[6],
                attempts=int(row[7]),
                wall_s=float(row[8]),
            )
            for row in rows
        ]

    def get(self, request):
        from repro.experiments.runner import RunRecord

        key = request_key(request)
        row = self._conn.execute(
            "SELECT payload, wall_s FROM runs WHERE content_key=?", (key,)
        ).fetchone()
        if row is None:
            return None
        result = ExperimentResult.from_dict(json.loads(zlib.decompress(row[0])))
        return RunRecord(request, result, row[1], cached=True)

    def keys(self) -> List[str]:
        return [
            row[0]
            for row in self._conn.execute(
                "SELECT content_key FROM runs ORDER BY content_key"
            )
        ]

    def index(self) -> Iterator[Dict[str, object]]:
        scalars: Dict[str, Dict[str, object]] = {}
        for key, name, value in self._conn.execute(
            "SELECT content_key, name, value FROM scalars ORDER BY content_key, name"
        ):
            scalars.setdefault(key, {})[name] = json.loads(value)
        for key, run_id, spec_id, kwargs, parameters, wall_s in self._conn.execute(
            "SELECT content_key, run_id, spec_id, kwargs, parameters, wall_s"
            " FROM runs ORDER BY run_id"
        ):
            yield {
                "content_key": key,
                "run_id": run_id,
                "spec_id": spec_id,
                "kwargs": _restore_params(json.loads(kwargs)),
                "parameters": _restore_params(json.loads(parameters)),
                "scalars": scalars.get(key, {}),
                "wall_s": wall_s,
            }

    def load_result(self, key: str) -> ExperimentResult:
        row = self._conn.execute(
            "SELECT payload FROM runs WHERE content_key=?", (key,)
        ).fetchone()
        if row is None:
            raise ResultLoadError(
                f"{self.path}: no stored run with content key {key}",
                artifact=self.path,
            )
        return ExperimentResult.from_dict(json.loads(zlib.decompress(row[0])))

    def close(self) -> None:
        """Close the sqlite connection; subsequent access raises."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def open_store(url: str) -> ResultStore:
    """Open (creating if needed) the store named by ``url``.

    The url scheme makes the backend choice part of the name instead of
    a filename convention:

    * ``sqlite:PATH`` — a columnar :class:`SqliteStore` file;
    * ``dir:PATH`` — a :class:`DirectoryStore` export tree.

    Anything else — a bare path included — raises
    :class:`~repro.experiments.specs.ParameterValueError` naming both
    spellings, which the CLI reports as invalid input (exit 2). The
    CLI's ``--store``, ``Study.run`` and the sweep service all resolve
    store names through this one factory.
    """
    scheme, sep, rest = url.partition(":")
    if not (sep and scheme in STORE_SCHEMES):
        raise ParameterValueError(
            f"store url {url!r}: expected 'sqlite:PATH' or 'dir:PATH'"
        )
    if not rest:
        raise ParameterValueError(
            f"store url {url!r}: empty path after {scheme!r} scheme"
        )
    return SqliteStore(rest) if scheme == "sqlite" else DirectoryStore(rest)

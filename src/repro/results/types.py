"""Typed results: :class:`RunResult` and the :class:`ResultSet` collection.

``RunResult`` wraps one :class:`~repro.experiments.common.ExperimentResult`
with its identity (run id, spec id, request kwargs) and derived scalar
metrics; it is constructible both in memory (from a sweep
:class:`~repro.experiments.runner.RunRecord`) and by loading an exported
run directory, and saving either form writes byte-identical artefacts.

``ResultSet`` is an immutable ordered collection of runs with
pandas-free relational verbs: ``filter``, ``split_by``, ``align_on``
(group runs sharing a generated layout) and ``scalars_frame``. It loads
a whole ``--out`` export directory (manifest-ordered) and saves through
the same deterministic export path the CLI uses.
"""

from __future__ import annotations

import json
import os
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.common import ExperimentResult, Table
from repro.results.metrics import DEFAULT_ALIGN_KEYS

RESULT_JSON = "result.json"
MANIFEST_JSON = "manifest.json"
FAILURES_JSON = "failures.json"

#: Schema tag of the run wire form (:meth:`RunResult.to_json_dict`).
RUN_RESULT_SCHEMA = "repro.results/run/1"


class ResultLoadError(RuntimeError):
    """A stored run could not be loaded: missing or corrupt artefact.

    Raised by :meth:`RunResult.load` / :meth:`ResultSet.load` instead of
    the bare ``FileNotFoundError`` / ``json.JSONDecodeError`` that used
    to escape from deep inside the export layer. Always names the run id
    and the offending artefact, so a failed load is diagnosable — and so
    the resume machinery (:mod:`repro.results.store`) can treat a torn
    checkpoint (a run directory the killed process only half wrote) as
    "not present" and simply re-run it.
    """

    def __init__(self, message: str, run_id: Optional[str] = None,
                 artifact: Optional[str] = None):
        super().__init__(message)
        self.run_id = run_id
        self.artifact = artifact


def canonical_result_dict(result: ExperimentResult) -> Dict[str, object]:
    """The JSON-normalised plain-data form of a result.

    Round-tripping through ``json`` collapses the representation
    differences that do not survive export (tuples become lists), so an
    in-memory result and its loaded export compare equal exactly when
    their ``result.json`` bytes would be identical.
    """
    return json.loads(json.dumps(result.to_dict(), sort_keys=True, default=list))


def _param_matches(actual: object, expected: object) -> bool:
    """Tolerant parameter equality: typed values or their CLI spellings."""
    return actual == expected or str(actual) == str(expected)


def _load_failures(out_dir: str) -> List[object]:
    """The failure records of an export tree (``failures.json``), if any."""
    from repro.experiments.runner import RunFailure

    path = os.path.join(out_dir, FAILURES_JSON)
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return []
    except json.JSONDecodeError as error:
        raise ResultLoadError(
            f"corrupt failures file {path} ({error})", artifact=path
        ) from error
    try:
        return [RunFailure.from_dict(entry) for entry in data.get("failures", [])]
    except (KeyError, TypeError, AttributeError) as error:
        raise ResultLoadError(
            f"corrupt failures file {path} ({error})", artifact=path
        ) from error


class RunResult:
    """One run's typed result: identity, parameters, scalars, series, tables.

    Thin and immutable by convention: the wrapped
    :class:`~repro.experiments.common.ExperimentResult` is shared, not
    copied. Two construction paths are equivalent (and round-trip
    tested byte-for-byte): :meth:`from_record` after a live run, and
    :meth:`load` on a directory a previous run exported.
    """

    __slots__ = (
        "run_id",
        "spec_id",
        "kwargs",
        "wall_s",
        "_result",
        "_loader",
        "_parameters",
        "_scalars",
    )

    def __init__(
        self,
        result: Optional[ExperimentResult],
        run_id: Optional[str] = None,
        spec_id: Optional[str] = None,
        kwargs: Optional[Mapping[str, object]] = None,
        wall_s: Optional[float] = None,
        *,
        loader: Optional[Callable[[], ExperimentResult]] = None,
        parameters: Optional[Mapping[str, object]] = None,
        scalars: Optional[Mapping[str, object]] = None,
    ):
        if result is None and loader is None:
            raise ValueError("RunResult needs a result or a lazy loader")
        if result is None and run_id is None:
            raise ValueError("a lazily loaded RunResult needs an explicit run_id")
        self._result = result
        self._loader = loader
        self.run_id = run_id or result.experiment
        self.spec_id = spec_id or (result.experiment if result else self.run_id)
        self.kwargs = dict(kwargs or {})
        self.wall_s = wall_s
        self._parameters = None if parameters is None else dict(parameters)
        self._scalars: Optional[Dict[str, object]] = (
            None if scalars is None else dict(scalars)
        )

    @property
    def result(self) -> ExperimentResult:
        """The wrapped experiment result, materialised on first access.

        A store-backed run (see :meth:`repro.results.store.SqliteStore.
        result_set`) starts with only its columnar side — parameters and
        scalar metrics — and fetches the full payload (series, tables)
        through ``loader`` the first time something needs it. Streaming
        verbs like ``scalars_frame`` and :func:`repro.results.compare`
        therefore never materialise payloads at all.
        """
        if self._result is None:
            self._result = self._loader()
        return self._result

    @property
    def materialized(self) -> bool:
        """Whether the full payload has been fetched (False = columnar only)."""
        return self._result is not None

    # -- construction -------------------------------------------------

    @classmethod
    def from_result(
        cls, result: ExperimentResult, run_id: Optional[str] = None
    ) -> "RunResult":
        """Wrap an in-memory experiment result."""
        return cls(result, run_id=run_id)

    @classmethod
    def from_record(cls, record) -> "RunResult":
        """Wrap one sweep :class:`~repro.experiments.runner.RunRecord`."""
        return cls(
            record.result,
            run_id=record.request.run_id,
            spec_id=record.request.spec_id,
            kwargs=record.request.kwargs_dict,
            wall_s=record.wall_s,
        )

    @classmethod
    def load(cls, path: str, **identity) -> "RunResult":
        """Load one exported run directory (``<path>/result.json``).

        The directory name is the run id (the export layer names run
        directories that way); ``identity`` keyword overrides
        (``run_id``, ``spec_id``, ``kwargs``) let a manifest-aware
        caller supply richer identity. A missing or corrupt artefact
        raises :class:`ResultLoadError` naming the run id and the file.
        """
        identity.setdefault("run_id", os.path.basename(os.path.normpath(path)))
        run_id = identity["run_id"]
        artifact = os.path.join(path, RESULT_JSON)
        try:
            with open(artifact) as handle:
                data = json.load(handle)
            result = ExperimentResult.from_dict(data)
        except FileNotFoundError:
            raise ResultLoadError(
                f"run {run_id!r}: missing artefact {artifact}",
                run_id=run_id,
                artifact=artifact,
            ) from None
        except (json.JSONDecodeError, KeyError, TypeError) as error:
            raise ResultLoadError(
                f"run {run_id!r}: corrupt artefact {artifact} ({error})",
                run_id=run_id,
                artifact=artifact,
            ) from error
        return cls(result, **identity)

    # -- delegation ---------------------------------------------------

    @property
    def experiment(self) -> str:
        return self.result.experiment

    @property
    def description(self) -> str:
        return self.result.description

    @property
    def parameters(self) -> Dict[str, object]:
        if self._parameters is not None and self._result is None:
            return self._parameters
        return self.result.parameters

    @property
    def series(self) -> Dict[str, List[Tuple[float, float]]]:
        return self.result.series

    @property
    def tables(self) -> List[Table]:
        return self.result.tables

    @property
    def notes(self) -> List[str]:
        return self.result.notes

    def table(self, title_fragment: str) -> Table:
        """First table whose title contains the fragment (KeyError if none)."""
        return self.result.find_table(title_fragment)

    def param(self, name: str, default: object = None) -> object:
        """One parameter value (``default`` when the run does not set it)."""
        return self.parameters.get(name, default)

    def effective_param(self, name: str, default: object = None) -> object:
        """The run's value for ``name``: exported, requested, or ``default``.

        Exported ``parameters`` win; the request ``kwargs`` fill in axes
        the exporter elides when they sit at their default (the
        byte-identity rule — e.g. ``fidelity`` is only exported when it
        is not ``event``). Manifests persist kwargs, so loaded sweeps
        resolve the same way live ones do.
        """
        if name in self.parameters:
            return self.parameters[name]
        return self.kwargs.get(name, default)

    # -- scalars ------------------------------------------------------

    @property
    def scalars(self) -> Dict[str, object]:
        """Named scalar metrics (every single-row table, flattened)."""
        if self._scalars is None:
            self._scalars = self.result.scalars()
        return self._scalars

    def scalar(self, name: str, default: object = None) -> object:
        """One scalar metric by name (``default`` when absent)."""
        return self.scalars.get(name, default)

    def numeric_scalars(self) -> Dict[str, float]:
        """The scalar metrics that are numbers (bools excluded)."""
        return {
            name: value
            for name, value in self.scalars.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }

    def key(self, *names: str) -> Tuple[object, ...]:
        """Parameter values as an alignment key tuple."""
        return tuple(self.parameters.get(name) for name in names)

    # -- persistence & identity --------------------------------------

    def save(self, out_dir: str, dir_name: Optional[str] = None) -> str:
        """Export this run under ``out_dir`` (default subdir: the run id).

        Delegates to the deterministic export layer, so the written
        bytes are identical whether the run lives in memory or was
        itself loaded from an export.
        """
        from repro.experiments.export import export_result

        return export_result(self.result, out_dir, dir_name or self.run_id)

    def canonical(self) -> Dict[str, object]:
        """JSON-normalised plain-data form (see :func:`canonical_result_dict`)."""
        return canonical_result_dict(self.result)

    def to_json_dict(self) -> Dict[str, object]:
        """The schema-versioned wire form (HTTP responses).

        The ``result`` value is :func:`canonical_result_dict` — the
        exact document ``result.json`` serialises (the export layer
        writes it through the same function), so a service response and
        an exported artefact can never drift. Identity (run id, spec
        id, normalised request kwargs) rides in the envelope alongside
        the ``schema`` tag; wall seconds are deliberately absent, like
        everywhere else in the deterministic surface.
        """
        return {
            "schema": RUN_RESULT_SCHEMA,
            "run_id": self.run_id,
            "spec_id": self.spec_id,
            "kwargs": json.loads(json.dumps(self.kwargs, sort_keys=True, default=list)),
            "result": self.canonical(),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return self.run_id == other.run_id and self.canonical() == other.canonical()

    __hash__ = None  # mutable payload; identity-hash would break == semantics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RunResult({self.run_id!r}, {len(self.tables)} table(s), "
            f"{len(self.series)} series)"
        )


GroupKey = Union[object, Tuple[object, ...]]


class ResultSet:
    """An immutable ordered collection of :class:`RunResult`\\ s.

    Every verb returns a new ``ResultSet`` (or a mapping of them), so
    analysis code composes without mutating anything:
    ``study.run().filter(topology="mesh").split_by("algorithm")``.
    Run ids are unique within a set — the same invariant the sweep
    runner enforces — which keeps exports collision-free.

    A set produced by a fault-tolerant sweep (``--on-error continue``)
    additionally carries the failed runs as
    :class:`~repro.experiments.runner.RunFailure` records in
    ``failures``: the surviving runs stay first-class (every verb works
    over them), the failures stay visible instead of silently vanishing.
    ``filter`` and slices keep the failures; grouped sub-sets
    (``split_by``/``align_on``) do not, since failures produced no
    parameters to group on.
    """

    def __init__(self, runs: Iterable[RunResult], failures: Iterable = ()):
        self.runs: Tuple[RunResult, ...] = tuple(runs)
        self.failures: Tuple[object, ...] = tuple(failures)
        run_ids = [run.run_id for run in self.runs]
        if len(set(run_ids)) != len(run_ids):
            raise ValueError("duplicate run ids in result set")
        self._by_id = {run.run_id: run for run in self.runs}

    @property
    def ok(self) -> bool:
        """Whether every run of the originating sweep succeeded."""
        return not self.failures

    # -- construction -------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable) -> "ResultSet":
        """Wrap sweep :class:`~repro.experiments.runner.RunRecord`\\ s.

        Failed records (``record.failure`` set, no result payload)
        become entries in ``failures`` rather than runs.
        """
        records = list(records)
        failures = [
            record.failure
            for record in records
            if getattr(record, "failure", None) is not None
        ]
        return cls(
            (
                RunResult.from_record(record)
                for record in records
                if getattr(record, "failure", None) is None
            ),
            failures=failures,
        )

    @classmethod
    def load(cls, out_dir: str) -> "ResultSet":
        """Load every run of an exported ``--out`` directory.

        With a ``manifest.json`` present, runs load in manifest order
        with full identity (spec id, request kwargs). Without one (e.g.
        a directory of hand-collected run dirs), every subdirectory
        containing a ``result.json`` loads in sorted name order.
        """
        manifest_path = os.path.join(out_dir, MANIFEST_JSON)
        failures = _load_failures(out_dir)
        runs: List[RunResult] = []
        if os.path.isfile(manifest_path):
            try:
                with open(manifest_path) as handle:
                    manifest = json.load(handle)
            except json.JSONDecodeError as error:
                raise ResultLoadError(
                    f"corrupt manifest {manifest_path} ({error})",
                    artifact=manifest_path,
                ) from error
            for entry in manifest.get("runs", []):
                runs.append(
                    RunResult.load(
                        os.path.join(out_dir, entry["run_id"]),
                        run_id=entry["run_id"],
                        spec_id=entry.get("experiment"),
                        kwargs=entry.get("kwargs"),
                    )
                )
            return cls(runs, failures=failures)
        try:
            names = sorted(os.listdir(out_dir))
        except FileNotFoundError:
            raise ResultLoadError(
                f"{out_dir}: no such export directory", artifact=out_dir
            ) from None
        for name in names:
            run_dir = os.path.join(out_dir, name)
            if os.path.isfile(os.path.join(run_dir, RESULT_JSON)):
                runs.append(RunResult.load(run_dir))
        if not runs and not failures:
            raise ResultLoadError(
                f"{out_dir}: no manifest.json and no run directories "
                f"containing {RESULT_JSON}",
                artifact=out_dir,
            )
        return cls(runs, failures=failures)

    @classmethod
    def from_store(cls, store, **params: object) -> "ResultSet":
        """All runs of a :class:`~repro.results.store.SqliteStore`.

        Runs come back in sorted-run-id order with their columnar side
        (parameters, scalar metrics) populated eagerly and the full
        payload (series, tables) loaded lazily per run on first access —
        ``scalars_frame``/:func:`~repro.results.compare` over the
        returned set therefore stream over the store index instead of
        materialising every payload. ``params`` filter CLI-tolerantly,
        like :meth:`filter`.
        """
        return store.result_set(**params)

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[RunResult]:
        return iter(self.runs)

    def __getitem__(self, key) -> Union[RunResult, "ResultSet"]:
        if isinstance(key, slice):
            return ResultSet(self.runs[key], failures=self.failures)
        if isinstance(key, str):
            return self._by_id[key]
        return self.runs[key]

    def get(self, run_id: str) -> Optional[RunResult]:
        """The run with this id, or None."""
        return self._by_id.get(run_id)

    @property
    def run_ids(self) -> Tuple[str, ...]:
        return tuple(run.run_id for run in self.runs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({len(self.runs)} run(s))"

    # -- relational verbs ---------------------------------------------

    def filter(
        self,
        predicate: Optional[Callable[[RunResult], bool]] = None,
        **params: object,
    ) -> "ResultSet":
        """Runs matching a predicate and/or parameter equalities.

        Parameter matching is CLI-tolerant: ``nodes=16`` and
        ``nodes="16"`` both match a run with ``nodes: 16``.
        """
        return ResultSet(
            (
                run
                for run in self.runs
                if (predicate is None or predicate(run))
                and all(
                    _param_matches(run.parameters.get(name), value)
                    for name, value in params.items()
                )
            ),
            failures=self.failures,
        )

    def param_keys(self) -> List[str]:
        """Union of parameter names: first run's order, extras sorted."""
        keys: List[str] = []
        seen = set()
        for run in self.runs:
            extra = [k for k in run.parameters if k not in seen]
            if not keys:
                keys.extend(extra)  # first run: declaration order
            else:
                keys.extend(sorted(extra))
            seen.update(extra)
        return keys

    def varying_keys(self, exclude: Sequence[str] = ()) -> List[str]:
        """Parameter names whose values differ across the set."""
        varying: List[str] = []
        for name in self.param_keys():
            if name in exclude:
                continue
            values = {str(run.parameters.get(name)) for run in self.runs}
            if len(values) > 1:
                varying.append(name)
        return varying

    def _group(self, keys: Sequence[str]) -> List[Tuple[Tuple[object, ...], "ResultSet"]]:
        groups: Dict[Tuple[object, ...], List[RunResult]] = {}
        for run in self.runs:
            groups.setdefault(run.key(*keys), []).append(run)
        ordered = sorted(groups, key=lambda key: tuple(str(v) for v in key))
        return [(key, ResultSet(groups[key])) for key in ordered]

    def split_by(self, *keys: str) -> Dict[GroupKey, "ResultSet"]:
        """Partition by parameter value(s): key -> sub-set.

        One key yields scalar mapping keys (``{"mesh": ..., ...}``);
        several yield tuples. Groups are ordered by stringified key, so
        iteration order is deterministic whatever the run order.
        """
        if not keys:
            raise ValueError("split_by needs at least one parameter name")
        return {
            key[0] if len(keys) == 1 else key: group
            for key, group in self._group(keys)
        }

    def align_on(
        self, *keys: str
    ) -> List[Tuple[Tuple[object, ...], "ResultSet"]]:
        """Group runs that share a generated layout.

        Without arguments, aligns on the layout identity keys
        (``topology``, ``nodes``, ``seed``) that actually occur in the
        set — two meshgen runs in the same group executed against the
        identical generated topology and sampled flows, so their
        metrics are directly comparable. Returns ``(key, group)`` pairs
        sorted by key; keys are always tuples here (unlike
        :meth:`split_by`) because alignment keys are usually composite.
        """
        if not keys:
            keys = tuple(
                name
                for name in DEFAULT_ALIGN_KEYS
                if any(name in run.parameters for run in self.runs)
            )
        return self._group(keys)

    def scalars_frame(self, *columns: str) -> Table:
        """A flat parameters+scalars table, one row per run.

        Without ``columns``, includes every parameter and every scalar
        metric occurring in the set (parameters first). Cells for
        values a run does not define are empty strings. The returned
        :class:`~repro.experiments.common.Table` renders to monospace
        text or markdown like any result table — the pandas-free
        answer to ``DataFrame``.
        """
        if columns:
            names = list(columns)
        else:
            names = list(self.param_keys())
            seen = set(names)
            scalar_names: List[str] = []
            for run in self.runs:
                scalar_names.extend(
                    sorted(k for k in run.scalars if k not in seen)
                )
                seen.update(run.scalars)
            names.extend(scalar_names)
        frame = Table("scalars", ["run_id"] + names)
        for run in self.runs:
            row: List[object] = [run.run_id]
            for name in names:
                if name in run.parameters:
                    row.append(run.parameters[name])
                else:
                    value = run.scalar(name, "")
                    row.append(value)
            frame.add(*row)
        return frame

    # -- persistence --------------------------------------------------

    def save(self, out_dir: str) -> List[str]:
        """Export every run plus manifest and index, deterministically.

        Delegates to the same export path the CLI's ``--out`` uses, so
        per-run artefacts are byte-identical to a live ``sweep``
        export. Manifest timing reflects what this set knows: live
        runs carry their wall seconds, loaded runs re-save with zeroed
        timing (artefact bytes are unaffected — timing lives only in
        the manifest). A set carrying failures additionally writes
        ``failures.json``; a fully successful set removes any stale one,
        so a resumed-then-completed tree re-saves byte-identically to an
        uninterrupted export.
        """
        from repro.experiments.export import export_failures, export_records
        from repro.experiments.runner import RunRecord, RunRequest

        records = [
            RunRecord(
                RunRequest(
                    spec_id=run.spec_id,
                    kwargs=tuple(sorted(run.kwargs.items())),
                    run_id=run.run_id,
                ),
                run.result,
                run.wall_s or 0.0,
            )
            for run in self.runs
        ]
        paths = export_records(records, out_dir)
        export_failures(list(self.failures), out_dir)
        return paths

"""The first-class results API: the repo's stable programmatic surface.

Everything analysis code, notebooks and external tooling should touch
lives here (see EXPERIMENTS.md, "Programmatic API"):

* :class:`RunResult` — one run, typed: parameters, scalar metrics,
  named series, tables. Constructible in memory from a sweep record or
  by loading an exported run directory; both forms save byte-identical
  artefacts.
* :class:`ResultSet` — an ordered collection with pandas-free
  relational verbs (``filter``, ``split_by``, ``align_on``,
  ``scalars_frame``) plus ``load``/``save`` over ``--out`` export
  trees.
* :class:`Study` — the fluent sweep builder and recommended entry
  point: ``Study("meshgen").grid(nodes=[16, 25],
  algorithm=["none", "ezflow"]).seeds(3).run(jobs=2)`` → ``ResultSet``.
* :func:`compare` / :func:`render_compare` — cross-run algorithm-delta
  tables on aligned layouts (the ``compare`` CLI subcommand renders
  exactly these).
* :class:`SqliteStore` plus :func:`open_store` (``sqlite:PATH``) — the
  one place for results to live, keyed by content ``(spec id,
  canonical params, seed)``: sweeps checkpoint into the store as runs
  finish, resume after a kill, and dedupe identical requests into cache
  hits (``Study(...).run(store=...)``, the CLI's ``--store``/``--resume``).
* :class:`ErrorPolicy` / :class:`RunFailure` / :class:`FaultPlan` —
  fault-tolerant sweep execution: per-run failure isolation with
  retries and timeouts (``Study(...).run(on_error="continue")``, the
  CLI's ``--on-error``/``--run-timeout``), typed failure records that
  checkpoint into stores and surface on ``ResultSet.failures``, and the
  deterministic chaos harness that tests all of it.
* :func:`validate_fidelity` / :class:`Tolerance` — engine-tier
  agreement reports pairing ``fidelity=event`` runs with their
  ``fidelity=slotted`` twins (the ``validate-fidelity`` CLI subcommand
  and the CI ``fidelity-smoke`` job render exactly these).

The CLI (``python -m repro.experiments``) and the benchmark suite are
built on this layer.
"""

from repro.experiments.faults import FaultPlan
from repro.experiments.runner import RUN_FAILURE_SCHEMA, ErrorPolicy, RunFailure
from repro.results.compare import (
    COMPARE_TABLE_SCHEMA,
    ComparisonError,
    IncompleteSweepWarning,
    compare,
    compare_json_dict,
    default_metrics,
    render_compare,
)
from repro.results.validation import (
    DEFAULT_TOLERANCES,
    Tolerance,
    ValidationError,
    ValidationReport,
    validate_fidelity,
    validation_study,
)
from repro.results.metrics import (
    DEFAULT_ALIGN_KEYS,
    DEFAULT_BASELINE,
    DEFAULT_COMPARE_METRICS,
    MESHGEN_SUMMARY_COLUMNS,
)
from repro.results.store import SqliteStore, content_key, open_store
from repro.results.study import Study, execute_requests
from repro.results.types import (
    RUN_RESULT_SCHEMA,
    ResultLoadError,
    ResultSet,
    RunResult,
    canonical_result_dict,
)

__all__ = [
    "COMPARE_TABLE_SCHEMA",
    "ComparisonError",
    "ErrorPolicy",
    "FaultPlan",
    "IncompleteSweepWarning",
    "RUN_FAILURE_SCHEMA",
    "RUN_RESULT_SCHEMA",
    "ResultLoadError",
    "RunFailure",
    "SqliteStore",
    "content_key",
    "open_store",
    "DEFAULT_ALIGN_KEYS",
    "DEFAULT_BASELINE",
    "DEFAULT_COMPARE_METRICS",
    "DEFAULT_TOLERANCES",
    "MESHGEN_SUMMARY_COLUMNS",
    "ResultSet",
    "RunResult",
    "Study",
    "Tolerance",
    "ValidationError",
    "ValidationReport",
    "canonical_result_dict",
    "compare",
    "compare_json_dict",
    "default_metrics",
    "execute_requests",
    "render_compare",
    "validate_fidelity",
    "validation_study",
]

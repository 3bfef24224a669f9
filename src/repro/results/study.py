"""The fluent :class:`Study` builder: declare a sweep, run it, get results.

``Study`` is the recommended programmatic entry point for parameter
sweeps — it replaces hand-assembled ``grid_requests`` plumbing with a
declarative builder over the scenario catalogue::

    from repro.results import Study

    results = (
        Study("meshgen")
        .grid(nodes=[16, 25], algorithm=["none", "ezflow", "diffq"])
        .seeds(3)
        .run(jobs=2)
    )                      # -> ResultSet, 3 topologies x 2 x 3 x 3 seeds

Every run's identity (run id, derived seed) is a pure function of the
declared grid, so a study executed at any ``jobs`` count — or exported
and reloaded — yields the identical :class:`~repro.results.ResultSet`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.runner import (
    RunRecord,
    RunRequest,
    SweepRunner,
    _grid_requests,
    default_jobs,
)
from repro.experiments.specs import ScenarioSpec, get_spec
from repro.results.types import ResultSet


class Study:
    """A declarative parameter study over one catalogue scenario.

    Builder methods mutate and return ``self`` (fluent chaining).
    Axes a scenario declares as sweep defaults (meshgen's
    ``topology=mesh,grid,tree``) expand automatically unless the study
    pins them — the same rule the ``sweep`` CLI applies — so CLI and
    programmatic sweeps of the same grid produce the same run set.
    """

    def __init__(self, experiment: str, **fixed: object):
        self._spec: ScenarioSpec = get_spec(experiment)
        self._grid: Dict[str, List[object]] = {}
        self._replicates = 1
        self._base_seed: Optional[int] = None
        self._default_axes = True
        if fixed:
            self.set(**fixed)

    @property
    def spec(self) -> ScenarioSpec:
        return self._spec

    # -- declaration --------------------------------------------------

    def _axis_values(self, name: str, value: object) -> List[object]:
        param = self._spec.param(name)  # unknown axis raises here
        if isinstance(value, list):
            if not value:
                raise ValueError(f"axis {name!r}: no values given")
            return list(value)
        if isinstance(value, tuple) and param.kind not in ("ints", "floats"):
            if not value:
                raise ValueError(f"axis {name!r}: no values given")
            return list(value)
        # Scalars — and bare tuples for sequence-kind parameters like
        # ``cw`` or ``loads_kbps``, which are ONE value each — pin the
        # axis to a single point. Sweep a sequence-kind parameter by
        # passing a list of tuples.
        return [value]

    def grid(self, **axes: object) -> "Study":
        """Add cartesian axes: ``grid(nodes=[16, 25], algorithm=["none"])``.

        A list (or, for scalar-kind parameters, a tuple) is an axis of
        values; anything else pins the parameter to one value. Values
        may be typed or CLI strings — they validate against the
        scenario's declared schema when requests are built.
        """
        for name, value in axes.items():
            self._grid[name] = self._axis_values(name, value)
        return self

    def set(self, **fixed: object) -> "Study":
        """Pin parameters to single values (``set(topology="mesh")``)."""
        for name, value in fixed.items():
            self._spec.param(name)
            self._grid[name] = [value]
        return self

    def seeds(self, seeds: Union[int, Sequence[int]], base: Optional[int] = None) -> "Study":
        """Declare the seed dimension.

        ``seeds(3)`` adds a three-value ``seed`` axis derived from a
        base seed (``base``, defaulting to the scenario's declared
        default seed) via :meth:`ScenarioSpec.derive_seed` — a pure
        function of (base, scenario id, replicate index). Crucially the
        *same* seed set applies to every grid point, so replicate k of
        ``algorithm=none`` and replicate k of ``algorithm=ezflow`` run
        the identical generated layout and ``align_on``/:func:`compare`
        can pair them. ``seeds([1, 2, 3])`` sweeps an explicit seed
        axis instead. (Contrast :meth:`replicates`, the CLI's
        per-run-index derivation, where seeds are all distinct across
        the whole sweep and therefore never align across variants.)
        """
        if isinstance(seeds, bool) or not isinstance(seeds, int):
            return self.grid(seed=list(seeds))
        if seeds < 1:
            raise ValueError("seeds count must be >= 1")
        if base is None:
            declared = self._spec.defaults().get("seed")
            base = int(declared) if declared is not None else 0
        return self.grid(
            seed=[self._spec.derive_seed(base, index) for index in range(seeds)]
        )

    def replicates(self, count: int, base_seed: Optional[int] = None) -> "Study":
        """Raw replicate control (the CLI's ``--replicates/--base-seed``).

        Unlike :meth:`seeds`, no base seed is assumed: replicates > 1
        without ``base_seed`` or a ``seed`` axis is rejected when
        requests are built, exactly as the CLI rejects it.
        """
        self._replicates = count
        self._base_seed = base_seed
        return self

    def no_default_axes(self) -> "Study":
        """Do not expand the scenario's declared default sweep axes."""
        self._default_axes = False
        return self

    # -- execution ----------------------------------------------------

    def axes(self) -> Dict[str, List[object]]:
        """The effective grid: declared axes plus unpinned default axes."""
        grid = dict(self._grid)
        if self._default_axes:
            for name, values in self._spec.sweep_defaults:
                if name not in grid:
                    grid[name] = list(values)
        return grid

    def requests(self) -> List[RunRequest]:
        """The validated request list this study would run, in order."""
        grid = self.axes()
        return _grid_requests(
            self._spec.id,
            grid,
            base_seed=self._base_seed,
            replicates=self._replicates,
        )

    def run(
        self,
        jobs: int = 1,
        out: Optional[str] = None,
        on_record=None,
        runner: Optional[SweepRunner] = None,
        store=None,
        on_error=None,
        run_timeout: Optional[float] = None,
        faults=None,
        telemetry=None,
    ) -> ResultSet:
        """Execute the study and return its :class:`~repro.results.ResultSet`.

        ``jobs`` fans runs out over worker processes (0 = every core);
        ``out`` additionally exports the deterministic artefact tree
        (per-run dirs + manifest + index), byte-identical to the CLI's
        ``sweep ... --out``. Pass an existing ``runner`` to reuse a
        persistent worker pool across several studies. ``store`` (a
        :class:`~repro.results.store.ResultStore`, or a store url such
        as ``"sqlite:runs.sqlite"``/``"dir:out"`` resolved through
        :func:`~repro.results.store.open_store` and closed on return)
        checkpoints every completed run and turns already-stored
        requests into cache hits, so re-running an interrupted study
        against the same store resumes instead of restarting.

        ``on_error`` (an :class:`~repro.experiments.runner.ErrorPolicy`
        or ``"fail"``/``"continue"``/``"retry:N"``), ``run_timeout`` and
        ``faults`` configure fault-tolerant execution — see
        :meth:`~repro.experiments.runner.SweepRunner.run`. Under
        ``continue``, failed runs surface on the returned set's
        ``failures`` list instead of aborting the study.

        ``telemetry`` (a :class:`~repro.telemetry.hub.TelemetryHub`)
        streams live run events to its subscribers while the study
        executes; exports and records are unaffected.
        """
        requests = self.requests()
        store, opened = _resolve_store(store)
        try:
            if runner is not None:
                results = ResultSet.from_records(
                    runner.run(
                        requests,
                        on_record=on_record,
                        store=store,
                        policy=on_error,
                        run_timeout=run_timeout,
                        faults=faults,
                        telemetry=telemetry,
                    )
                )
            else:
                results = execute_requests(
                    requests,
                    jobs=jobs,
                    on_record=on_record,
                    store=store,
                    on_error=on_error,
                    run_timeout=run_timeout,
                    faults=faults,
                    telemetry=telemetry,
                )
        finally:
            if opened:
                store.close()
        if out is not None:
            results.save(out)
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        axes = ", ".join(f"{k}x{len(v)}" for k, v in self._grid.items())
        return f"Study({self._spec.id!r}, {axes or 'defaults'})"


def _resolve_store(store):
    """Resolve a store argument: pass instances through, open url strings.

    Returns ``(store, opened)`` — ``opened`` is True when this call
    created the instance (from a ``sqlite:``/``dir:`` url via
    :func:`~repro.results.store.open_store`) and the caller therefore
    owns closing it.
    """
    if isinstance(store, str):
        from repro.results.store import open_store

        return open_store(store), True
    return store, False


def execute_requests(
    requests: Sequence[RunRequest],
    jobs: int = 1,
    on_record=None,
    store=None,
    on_error=None,
    run_timeout: Optional[float] = None,
    faults=None,
    telemetry=None,
) -> ResultSet:
    """Run pre-built requests and wrap the records (CLI plumbing helper).

    ``store`` (an instance or a store url string) enables checkpoint/
    resume/dedupe semantics; ``on_error``, ``run_timeout`` and
    ``faults`` configure fault-tolerant execution, and ``telemetry``
    (a :class:`~repro.telemetry.hub.TelemetryHub`) streams live run
    events — see :meth:`~repro.experiments.runner.SweepRunner.run`.
    """
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = all available cores)")
    store, opened = _resolve_store(store)
    try:
        with SweepRunner(jobs=default_jobs() if jobs == 0 else jobs) as runner:
            records: List[RunRecord] = runner.run(
                requests,
                on_record=on_record,
                store=store,
                policy=on_error,
                run_timeout=run_timeout,
                faults=faults,
                telemetry=telemetry,
            )
    finally:
        if opened:
            store.close()
    return ResultSet.from_records(records)

"""Scenario specifications: the declarative experiment catalogue.

Every paper experiment is described by a :class:`ScenarioSpec` — its id,
entry point, and an explicit parameter schema — instead of being a bare
callable. The schema is what lets the CLI validate options *before*
calling into a harness (no more ``except TypeError`` guessing), lets the
sweep runner build parameter grids mechanically, and lets ``list`` print
a catalogue without importing the (heavy) harness modules: entry points
are ``"module:function"`` strings resolved lazily, which also makes
specs trivially picklable for multiprocessing workers.
"""

from __future__ import annotations

import importlib
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.experiments.common import ExperimentResult


class UnknownExperimentError(KeyError):
    """An experiment id that is not in the catalogue.

    Subclasses KeyError so existing ``except KeyError`` callers keep
    working, while the CLI can catch registry misses specifically
    without swallowing KeyErrors raised inside experiment harnesses.
    """


class UnknownParameterError(ValueError):
    """A kwarg was supplied that the scenario does not declare."""


class ParameterValueError(ValueError):
    """A kwarg value could not be coerced to the declared kind."""


#: Parsers for the declared parameter kinds. Sequence kinds accept
#: comma-separated CLI text ("16,32,64") and pass python sequences
#: through untouched.
_KIND_PARSERS: Dict[str, Callable[[str], object]] = {
    "int": int,
    "float": float,
    "str": str,
    "ints": lambda text: tuple(int(v) for v in str(text).split(",") if v != ""),
    "floats": lambda text: tuple(float(v) for v in str(text).split(",") if v != ""),
}


@dataclass(frozen=True)
class Param:
    """One declared parameter of a scenario."""

    name: str
    kind: str  # "int" | "float" | "str" | "ints" | "floats"
    default: object
    help: str = ""

    def __post_init__(self):
        if self.kind not in _KIND_PARSERS:
            raise ValueError(f"unknown parameter kind {self.kind!r}")

    def coerce(self, value: object) -> object:
        """Coerce a CLI string (or passthrough value) to the declared kind.

        Integer kinds take integers only: an integral float becomes its
        int (``3.0`` -> ``3``), and a bool, any other float or any other
        type is a :class:`ParameterValueError`. Float kinds take ints
        and floats but not bools, unchanged (``duration_s=4`` stays
        ``4``), and ``str`` takes strings only. A sequence kind's
        non-string value must be a list or tuple of such items.
        """
        if isinstance(value, str):
            try:
                return _KIND_PARSERS[self.kind](value)
            except ValueError as error:
                raise ParameterValueError(
                    f"parameter {self.name!r}: cannot parse {value!r} as {self.kind}"
                ) from error
        if self.kind == "str":
            raise ParameterValueError(
                f"parameter {self.name!r}: expected a string, got {value!r}"
            )
        if self.kind == "int":
            return self._integer(value)
        if self.kind == "float":
            return self._number(value)
        if not isinstance(value, (list, tuple)):
            raise ParameterValueError(
                f"parameter {self.name!r}: expected a list of {self.kind}, got {value!r}"
            )
        item = self._integer if self.kind == "ints" else self._number
        return tuple(item(entry) for entry in value)

    def _integer(self, value: object) -> int:
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ParameterValueError(
            f"parameter {self.name!r}: expected an integer, got {value!r}"
        )

    def _number(self, value: object) -> object:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return value
        raise ParameterValueError(
            f"parameter {self.name!r}: expected a number, got {value!r}"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A runnable scenario: id, lazy entry point, parameter schema.

    ``sweep_defaults`` declares grid axes a bare ``sweep`` of this
    scenario expands by default (e.g. meshgen sweeps all topology kinds
    unless the CLI pins one). Stored as ((name, (value, ...)), ...) so
    the spec stays hashable and picklable.
    """

    id: str
    entry: str  # "package.module:function", resolved on demand
    description: str
    params: Tuple[Param, ...] = ()
    aliases: Tuple[str, ...] = ()
    sweep_defaults: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    #: Engine tiers this scenario can execute on (the ``fidelity``
    #: axis). Every scenario runs on the event core; families that also
    #: support a fast tier list it here so ``list --json`` consumers can
    #: discover the axis without trying a run.
    fidelities: Tuple[str, ...] = ("event",)

    def resolve(self) -> Callable[..., ExperimentResult]:
        """Import and return the entry-point callable."""
        module_name, _, attr = self.entry.partition(":")
        module = importlib.import_module(module_name)
        return getattr(module, attr)

    def param_names(self) -> Tuple[str, ...]:
        """Names of all declared parameters, in declaration order."""
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> Param:
        """The declared parameter ``name`` (UnknownParameterError if absent)."""
        for p in self.params:
            if p.name == name:
                return p
        raise UnknownParameterError(
            f"{self.id}: unknown parameter {name!r}; "
            f"declared: {', '.join(self.param_names()) or '(none)'}"
        )

    def validate(self, kwargs: Mapping[str, object]) -> Dict[str, object]:
        """Check every kwarg against the schema and coerce its value.

        Raises :class:`UnknownParameterError` for undeclared names, so a
        typo is reported as such instead of masking ``TypeError``s raised
        inside the experiment.
        """
        validated: Dict[str, object] = {}
        for name, value in kwargs.items():
            validated[name] = self.param(name).coerce(value)
        return validated

    def defaults(self) -> Dict[str, object]:
        """The declared default value of every parameter."""
        return {p.name: p.default for p in self.params}

    def derive_seed(self, base_seed: int, index: int) -> int:
        """Deterministic per-run seed for replicate ``index`` of a sweep.

        Mixes the base seed with the scenario id and the run index the
        same way :class:`~repro.sim.rng.RngRegistry` mixes stream names,
        so the seed depends only on (base_seed, id, index) — never on
        worker count or completion order.
        """
        tag = zlib.crc32(f"{self.id}:{index}".encode())
        return (int(base_seed) * 1_000_003 + tag) % (2**31 - 1)

    def run(self, **kwargs) -> ExperimentResult:
        """Validate kwargs and execute the scenario."""
        return self.resolve()(**self.validate(kwargs))

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe catalogue entry: id, params, defaults, sweep axes.

        This is what ``python -m repro.experiments list --json`` emits,
        so the Study builder and external tools can introspect the
        catalogue without importing any harness module (sequence-kind
        defaults render as lists).
        """

        def jsonable(value: object) -> object:
            return list(value) if isinstance(value, tuple) else value

        return {
            "id": self.id,
            "description": self.description,
            "entry": self.entry,
            "aliases": list(self.aliases),
            "params": [
                {
                    "name": p.name,
                    "kind": p.kind,
                    "default": jsonable(p.default),
                    "help": p.help,
                }
                for p in self.params
            ],
            "sweep_defaults": [
                {"name": name, "values": [jsonable(v) for v in values]}
                for name, values in self.sweep_defaults
            ],
            "fidelities": list(self.fidelities),
        }


def _seed(default: int) -> Param:
    return Param("seed", "int", default, "master RNG seed")


def _duration(default: float) -> Param:
    return Param("duration_s", "float", default, "run duration in seconds")


def _warmup(default: float) -> Param:
    return Param("warmup_s", "float", default, "discarded warm-up prefix in seconds")


SPECS: Tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        id="fig1",
        entry="repro.experiments.fig1:run",
        description="3- vs 4-hop buffer evolution (Figure 1)",
        params=(
            _duration(300.0),
            _seed(1),
            _warmup(30.0),
            Param("sample_interval_s", "float", 1.0, "buffer sampling period"),
        ),
    ),
    ScenarioSpec(
        id="table1",
        entry="repro.experiments.table1:run",
        description="testbed link capacities (Table 1)",
        params=(_duration(120.0), _seed(1), _warmup(10.0)),
    ),
    ScenarioSpec(
        id="fig4",
        entry="repro.experiments.fig4:run",
        description="testbed buffer evolution with/without EZ-flow (Figure 4)",
        params=(
            _duration(400.0),
            _seed(4),
            _warmup(60.0),
            Param("sample_interval_s", "float", 1.0, "buffer sampling period"),
        ),
    ),
    ScenarioSpec(
        id="table2",
        entry="repro.experiments.table2:run",
        description="testbed throughput/smoothness/fairness (Table 2)",
        params=(_duration(400.0), _seed(4), _warmup(60.0)),
    ),
    ScenarioSpec(
        id="scenario1",
        entry="repro.experiments.scenario1:run",
        description="merge topology schedule (Figures 6, 7, 8)",
        aliases=("fig6", "fig7", "fig8"),
        params=(
            Param("time_scale", "float", 0.2, "schedule compression (1.0 = paper)"),
            _seed(5),
            Param("settle_fraction", "float", 0.35, "discarded head of each period"),
            Param("bin_s", "float", 10.0, "throughput bin width in seconds"),
        ),
    ),
    ScenarioSpec(
        id="scenario2",
        entry="repro.experiments.scenario2:run",
        description="three-flow topology schedule (Figures 10, 11, Table 3)",
        aliases=("fig10", "fig11", "table3"),
        params=(
            Param("time_scale", "float", 0.1, "schedule compression (1.0 = paper)"),
            _seed(6),
            Param("settle_fraction", "float", 0.35, "discarded head of each period"),
            Param("bin_s", "float", 10.0, "throughput bin width in seconds"),
        ),
    ),
    ScenarioSpec(
        id="stability",
        entry="repro.experiments.stability:run",
        description="Table 4 activation patterns + Theorem 1 drift",
        aliases=("table4",),
        params=(
            Param("slots", "int", 200_000, "winner-process sample count"),
            _seed(7),
            Param("cw", "ints", (16, 16, 16, 16), "per-node contention windows"),
            Param("trials", "int", 1000, "random-walk trial count"),
            Param("hops", "int", 4, "chain length in hops"),
        ),
    ),
    ScenarioSpec(
        id="loadsweep",
        entry="repro.experiments.loadsweep:run",
        description="offered-load sweep with/without EZ-flow",
        params=(
            _duration(200.0),
            _seed(3),
            _warmup(60.0),
            Param("hops", "int", 4, "chain length in hops"),
            Param(
                "loads_kbps",
                "floats",
                (50.0, 100.0, 150.0, 250.0, 500.0, 1000.0, 2000.0),
                "offered loads (kb/s)",
            ),
        ),
    ),
    ScenarioSpec(
        id="meshgen",
        entry="repro.experiments.meshgen:run",
        description="generated-topology family: random mesh / grid / multi-gateway tree",
        params=(
            Param("topology", "str", "mesh", "generator kind: mesh | grid | tree"),
            Param("nodes", "int", 16, "node count"),
            Param("density", "float", 1.5, "mesh density (~pi*density neighbours/node)"),
            Param("gateways", "int", 2, "gateway count"),
            Param("flows", "int", 4, "sampled source->gateway flows"),
            Param("workload", "str", "cbr", "cbr | onoff | windowed | mixed"),
            Param("algorithm", "str", "none", "none | ezflow | diffq | penalty"),
            Param("rate_kbps", "float", 400.0, "per-flow offered load (kb/s)"),
            _duration(30.0),
            _warmup(5.0),
            _seed(11),
            Param(
                "loss",
                "str",
                "",
                "per-link loss model: iid:P | ge:PGB:PBG[:PBAD[:PGOOD]] (empty = lossless)",
            ),
            Param(
                "churn",
                "str",
                "",
                "churn/mobility schedule, '+'-joined events: "
                "down:N@T | up:N@T | move:N@T:X:Y (empty = static)",
            ),
            Param(
                "fidelity",
                "str",
                "event",
                "engine tier: event (per-frame core) | slotted (fast tier)",
            ),
        ),
        sweep_defaults=(("topology", ("mesh", "grid", "tree")),),
        fidelities=("event", "slotted"),
    ),
    ScenarioSpec(
        id="bidirectional",
        entry="repro.experiments.bidirectional:run",
        description="reliable-transport window sweep on the K-hop chain",
        params=(
            _duration(200.0),
            _seed(3),
            _warmup(60.0),
            Param("hops", "int", 4, "chain length in hops"),
            Param("windows", "ints", (4, 16, 64), "transport window sizes"),
        ),
    ),
)


_BY_ID: Dict[str, ScenarioSpec] = {}
for _spec in SPECS:
    _BY_ID[_spec.id] = _spec
    for _alias in _spec.aliases:
        _BY_ID[_alias] = _spec


def spec_ids(include_aliases: bool = True):
    """All known scenario ids (primary ids and figure/table aliases)."""
    if include_aliases:
        return sorted(_BY_ID)
    return sorted(spec.id for spec in SPECS)


def catalogue() -> Dict[str, object]:
    """The whole scenario catalogue as one JSON-safe document.

    Schema-versioned so downstream tooling can detect layout changes;
    experiments appear in declaration (= ``list``) order. Version 2
    added the per-scenario ``fidelities`` list (engine tiers).
    """
    return {
        "schema": "repro.experiments/catalogue/2",
        "experiments": [spec.to_dict() for spec in SPECS],
    }


def get_spec(spec_id: str) -> ScenarioSpec:
    """Resolve a scenario id (aliases included) to its spec."""
    try:
        return _BY_ID[spec_id]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {spec_id!r}; known: {', '.join(spec_ids())}"
        ) from None

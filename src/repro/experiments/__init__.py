"""Experiment harnesses: one module per paper table/figure.

The catalogue lives in :mod:`repro.experiments.specs` as declarative
:class:`~repro.experiments.specs.ScenarioSpec`s (id, entry point,
parameter schema); :mod:`repro.experiments.runner` fans batches of runs
out over processes. The CLI (``python -m repro.experiments``) and the
benchmarks both resolve experiments through
:func:`~repro.experiments.specs.get_spec`.

| id        | paper content                                   |
|-----------|--------------------------------------------------|
| fig1      | 3- vs 4-hop buffer evolution (Figure 1)          |
| table1    | testbed link capacities (Table 1)                |
| fig4      | testbed buffer evolution ± EZ-flow (Figure 4)    |
| table2    | testbed throughput/fairness (Table 2)            |
| scenario1 | merge topology, Figures 6, 7, 8                  |
| scenario2 | three-flow topology, Figures 10, 11, Table 3     |
| stability | Table 4 + Theorem 1 + random-walk contrast       |
| loadsweep | offered-load sweep ± EZ-flow                     |
| meshgen   | generated mesh/grid/tree topologies ± baselines  |
| bidirectional | transport window sweep on the chain          |

Harness modules stay importable directly (``from repro.experiments
import fig1``); the registry resolves them lazily so ``list`` and spec
validation never pay harness import cost.
"""

from repro.experiments.common import ExperimentResult, Table

__all__ = ["ExperimentResult", "Table"]

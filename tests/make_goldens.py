"""Regenerate the golden byte-identity exports under ``tests/goldens/``.

Run from the repo root::

    PYTHONPATH=src python tests/make_goldens.py

The goldens pin the exact bytes of representative exports — one small
canned figure run and four generated-topology (meshgen) runs covering
both engine tiers and the dynamic loss/churn axes — so any change to
simulator semantics, RNG draw order, or export formatting shows up as
a byte diff in ``tests/test_golden_exports.py``. Only regenerate them
when an *intentional* behaviour change is being made, and say so in
the commit message.
"""

from __future__ import annotations

import os
import shutil
import sys

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")

#: The pinned runs: (spec id, kwargs, directory name). Kwargs are chosen
#: to keep each run under ~1 s while still exercising the MAC/PHY stack,
#: the EZ-flow controller, and (via the mixed workload) the windowed
#: transport's cancellable timers.
GOLDEN_RUNS = (
    ("fig1", {"duration_s": 40.0, "warmup_s": 10.0}, "fig1_short"),
    (
        "meshgen",
        {
            "topology": "mesh",
            "nodes": 16,
            "flows": 3,
            "workload": "mixed",
            "algorithm": "ezflow",
            "duration_s": 6.0,
            "warmup_s": 2.0,
            "seed": 11,
        },
        "meshgen_mesh16",
    ),
    # The dynamic axes on both tiers: the Dynamic link state table, the
    # per-link loss models and churn application (down, move, up).
    (
        "meshgen",
        {
            "topology": "mesh",
            "nodes": 16,
            "flows": 3,
            "algorithm": "diffq",
            "loss": "ge:0.05:0.3",
            "churn": "down:3@1.5+move:5@2:150:150+up:3@3",
            "duration_s": 4.0,
            "warmup_s": 1.0,
            "seed": 11,
        },
        "meshgen_event_dynamic",
    ),
    (
        "meshgen",
        {
            "topology": "mesh",
            "nodes": 16,
            "flows": 3,
            "algorithm": "penalty",
            "loss": "ge:0.05:0.3",
            "churn": "down:3@1.5+move:5@2:150:150+up:3@3",
            "duration_s": 4.0,
            "warmup_s": 1.0,
            "seed": 11,
            "fidelity": "slotted",
        },
        "meshgen_slotted_dynamic",
    ),
    (
        "meshgen",
        {
            "topology": "grid",
            "nodes": 25,
            "flows": 4,
            "workload": "mixed",
            "algorithm": "ezflow",
            "duration_s": 6.0,
            "warmup_s": 2.0,
            "fidelity": "slotted",
        },
        "meshgen_slotted_grid25",
    ),
)


def main() -> int:
    from repro.experiments.export import export_result
    from repro.experiments.runner import execute_request, request_for

    for spec_id, kwargs, dir_name in GOLDEN_RUNS:
        target = os.path.join(GOLDEN_DIR, dir_name)
        if os.path.isdir(target):
            shutil.rmtree(target)
        record = execute_request(request_for(spec_id, kwargs))
        export_result(record.result, GOLDEN_DIR, dir_name)
        files = sorted(os.listdir(target))
        print(f"{dir_name}: {len(files)} file(s) ({', '.join(files)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the golden byte-identity exports under ``tests/goldens/``.

Run from the repo root::

    PYTHONPATH=src python tests/make_goldens.py

The goldens pin the exact bytes of representative exports — eight short
paper harness runs (the saturated Figure 1 chain, the CBR testbed of
Table 2 and the relay buffer series Figure 4 samples on it, the
scenario 1 and 2 schedules with their EZ-flow window series, a CBR
load sweep, Table 1's isolated links and the windowed transport over
the chain) and six generated-topology (meshgen) runs covering
both engine tiers, every adaptive slotted window rule and the dynamic
loss/churn axes — so any change to
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
    # The CBR paper paths: the testbed runs Figure 4 shares through
    # testbedlab (saturating 2 Mb/s sources, EZ-flow, the parking lot),
    # scenario 2's Figure 11 window series read back from the trace, and
    # the 4-hop chain driven below and above capacity, so both the
    # enqueue and the full-queue refusal of a CBR tick are pinned.
    ("table2", {"duration_s": 20.0, "warmup_s": 5.0}, "table2_short"),
    # Figure 4 reads the buffer sampler's series of the runs Table 2
    # just memoised (same seed and horizon), as `run all` does; scenario
    # 1 exports Figure 8's window series.
    ("fig4", {"duration_s": 20.0, "warmup_s": 5.0}, "fig4_short"),
    ("scenario1", {"time_scale": 0.01}, "scenario1_short"),
    ("scenario2", {"time_scale": 0.004}, "scenario2_short"),
    (
        "loadsweep",
        {"duration_s": 20.0, "warmup_s": 5.0, "loads_kbps": (100.0, 2000.0)},
        "loadsweep_short",
    ),
    # Table 1's one-hop link flows over the calibrated lossy channel,
    # and the windowed transport's T1 flow over the chain with its
    # reverse ACK routes, below and above the relays' capacity.
    ("table1", {"duration_s": 20.0, "warmup_s": 5.0}, "table1_short"),
    (
        "bidirectional",
        {"duration_s": 20.0, "warmup_s": 5.0, "windows": (4, 64)},
        "bidirectional_short",
    ),
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
    # A 100-node slotted mesh under each adaptive window rule: about 3.5
    # winners per slot on weighted (non-uniform) windows. Geometric maps
    # never collide (the sense radius exceeds twice the transmit radius),
    # so the DiffQ run adds i.i.d. loss to pin retries and exponential
    # backoff on top of the rule's windows.
    (
        "meshgen",
        {
            "topology": "mesh",
            "nodes": 100,
            "density": 5.0,
            "flows": 12,
            "algorithm": "ezflow",
            "duration_s": 4.0,
            "warmup_s": 1.0,
            "seed": 11,
            "fidelity": "slotted",
        },
        "meshgen_slotted_mesh100_ezflow",
    ),
    (
        "meshgen",
        {
            "topology": "mesh",
            "nodes": 100,
            "density": 5.0,
            "flows": 12,
            "algorithm": "diffq",
            "loss": "iid:0.1",
            "duration_s": 4.0,
            "warmup_s": 1.0,
            "seed": 11,
            "fidelity": "slotted",
        },
        "meshgen_slotted_mesh100_diffq",
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

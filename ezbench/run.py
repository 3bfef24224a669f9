"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 ezbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 ezbench/run.py --workload mesh --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separately traced run (see README.md). The
report lists every metric with its unit, sample count, raw host
seconds and hardware index; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``run.py`` pins itself to one CPU before it starts anything, so every
program process it launches runs on that CPU too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from probe import pin_to_one_cpu  # noqa: E402

#: Where the benchmark writes: stores, logs, exports, traces.
WORKDIR = ".ezbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper", "mesh", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: the smallest inputs, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def print_report(workload, cpu, outcome, metrics) -> None:
    print(f"workload {workload} on cpu {cpu}; digest {outcome.digest or '-'}")
    print(f"{'metric':36} {'value':>12} {'unit':6} {'n':>5} {'raw':>10} {'index':>7}")
    for name, metric in metrics.items():
        raw = "" if metric.raw is None else f"{metric.raw:10.4f}"
        index = "" if metric.index is None else f"{metric.index:7.3f}"
        print(f"{name:36} {metric.value:12.6g} {metric.unit:6} {metric.samples:5d} {raw:>10} {index:>7}")
    for line in outcome.refused:
        print(f"refused: {line}")
    for line in outcome.problems:
        print(f"FAILED: {line}")
    verdict = "correct" if outcome.failed == 0 else "INCORRECT"
    print(f"{verdict}: {outcome.failed} of {outcome.attempted} operations failed")


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = os.getcwd()
    if not os.path.isfile(os.path.join(repo, "src", "repro", "__init__.py")):
        print("ezbench: no program here (src/repro is missing); run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(repo, "src"))
    import workloads
    from workloads import Context

    cpu = pin_to_one_cpu()
    # On SIGTERM, unwind through the cleanup below: every launched
    # process is waited for and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = os.path.join(repo, WORKDIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = Context(repo, workdir, args.seed, args.seconds, args.size)
    try:
        if args.trace:
            import traced

            ctx.trace_dir = os.path.join(workdir, "trace")
            os.makedirs(ctx.trace_dir)
            outcome, metrics = traced.run(ctx, args.workload)
        else:
            outcome = workloads.WORKLOADS[args.workload](ctx)
            metrics = outcome.metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(args.workload, cpu, outcome, metrics)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and bool(metrics),
                "attempted": max(outcome.attempted, 1),
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

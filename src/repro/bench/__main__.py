"""CLI: run the declared benchmark suite and gate it against a baseline.

Examples::

    python -m repro.bench                          # run the suite, print report
    python -m repro.bench --out BENCH_PR21.json    # run the suite, write JSON
    python -m repro.bench --out bench.json \\
        --compare BENCH_PR21.json --max-regression 0.30

``--compare OLD`` prints a delta table of every case present in both
reports (matched by name + kwargs); a baseline of another report schema
is an input error (exit 2). With ``--max-regression T`` the process
exits 1 when any shared case got slower than ``T`` (fractional, 0.30 =
30 %) after normalising it by its own calibration-probe ratio — this is
the CI perf gate.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench import (
    compare_reports,
    dump_report,
    load_report,
    regressions,
    render_comparison,
    run_suite,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the repo's declared benchmark suite.",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE", help="write the report JSON to FILE"
    )
    parser.add_argument(
        "--compare",
        default=None,
        metavar="OLD.json",
        help="print a delta table against a previous report",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="FRAC",
        help="with --compare: exit 1 if any case regresses more than FRAC "
        "(each case normalised by its calibration probe)",
    )
    args = parser.parse_args(argv)
    if args.max_regression is not None and args.compare is None:
        parser.error("--max-regression needs --compare")

    # Read the baseline first, so a bad one fails before the suite runs.
    old = None
    if args.compare is not None:
        try:
            old = load_report(args.compare)
        except (OSError, ValueError) as error:
            print(f"--compare: {error}", file=sys.stderr)
            return 2

    def progress(name, entry):
        eps = entry.get("events_per_s")
        rate = f"  {eps:,.0f} events/s" if eps else ""
        print(f"{name:<32} {entry['wall_s']:>9.3f}s{rate}", file=sys.stderr)

    report = run_suite(progress=progress)

    if args.out is not None:
        dump_report(report, args.out)
        print(f"wrote {args.out} ({len(report['cases'])} case(s))", file=sys.stderr)
    elif old is None:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        print()

    if old is not None:
        rows = compare_reports(old, report)
        if not rows:
            print("no comparable cases (names/kwargs differ)", file=sys.stderr)
            return 1
        print(render_comparison(rows))
        if args.max_regression is not None:
            bad = regressions(rows, args.max_regression)
            if bad:
                for row in bad:
                    print(
                        f"REGRESSION {row['case']}: {row['norm_speedup']:.2f}x "
                        f"(tolerance {1.0 / (1.0 + args.max_regression):.2f}x)",
                        file=sys.stderr,
                    )
                return 1
            print(
                f"no regressions beyond {args.max_regression:.0%} "
                f"({len(rows)} case(s) compared)",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests for the persistent benchmark subsystem (repro.bench)."""

import json

import pytest

from repro.bench import (
    INDEX_CASE,
    BenchCase,
    build_suite,
    compare_reports,
    dump_report,
    hardware_index,
    load_report,
    regressions,
    render_comparison,
    run_case,
    run_suite,
)
from repro.bench.micro import MICRO_CASES
from repro.bench.telemetrycase import telemetry_overhead
from repro.bench.__main__ import main as bench_main
from repro.topology import meshgen


class TestSuiteDeclaration:
    def test_names_are_unique(self):
        names = [case.name for case in build_suite()]
        assert len(names) == len(set(names))

    def test_declared_scaling_curve(self):
        names = {case.name for case in build_suite()}
        for nodes in (16, 25, 49, 100):
            assert f"meshgen.n{nodes}" in names
        # Mesh-scale slotted points run in the full suite only.
        full_only = {case.name for case in build_suite() if not case.quick}
        for nodes in (100, 400, 1000, 4000):
            assert f"meshgen.slotted.n{nodes}" in full_only

    def test_quick_subset_is_nonempty_and_fast_cases_only(self):
        quick = [case for case in build_suite() if case.quick]
        assert quick, "CI quick lane needs cases"
        assert INDEX_CASE in {case.name for case in quick}

    def test_every_figure_has_a_case(self):
        names = {case.name for case in build_suite()}
        for spec_id in ("fig1", "fig4", "table2", "scenario1", "stability"):
            assert f"figure.{spec_id}" in names

    def test_micro_cases_execute(self):
        for name, (fn, kwargs) in MICRO_CASES.items():
            small = {k: min(v, 2_000) if isinstance(v, int) else v for k, v in kwargs.items()}
            stats = fn(**small)
            assert stats["events"] > 0, name

    def test_store_case_declared_and_executes(self):
        names = {case.name for case in build_suite()}
        assert "results.store.n1000" in names
        assert "results.store.quick.n200" in {
            case.name for case in build_suite() if case.quick
        }
        from repro.bench.storecase import results_store

        stats = results_store(runs=10)
        # 10 inserts + 10 streamed frame rows + compare table lines.
        assert stats["events"] > 20


class TestRunAndReport:
    def test_micro_case_entry_shape(self):
        case = next(c for c in build_suite() if c.name == INDEX_CASE)
        entry = run_case(case, repeat=1)
        assert entry["wall_s"] > 0
        assert entry["events"] > 0
        assert entry["events_per_s"] > 0
        assert entry["kwargs"] == case.kwargs_dict

    def test_every_meshgen_round_generates_its_layout(self, monkeypatch):
        generate, built = meshgen._generate, []
        monkeypatch.setattr(
            meshgen, "_generate", lambda spec: built.append(spec) or generate(spec)
        )
        kwargs = (("duration_s", 1.0), ("nodes", 9), ("warmup_s", 0.5))
        run_case(BenchCase("tiny", "scenario", "meshgen", kwargs), repeat=2)
        assert len(built) == 2
        telemetry_overhead(nodes=9, rounds=2)  # two detached, two attached
        assert len(built) == 6

    def test_run_suite_filter_and_dump_roundtrip(self, tmp_path):
        report = run_suite(quick=True, only="engine_post")
        assert list(report["cases"]) == [INDEX_CASE]
        path = tmp_path / "bench.json"
        dump_report(report, str(path))
        assert load_report(str(path)) == report
        # Deterministic serialization: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report


class TestCompare:
    def fake_report(self, wall, rate):
        return {
            "schema": "repro.bench/1",
            "suite": "quick",
            "cases": {
                INDEX_CASE: {
                    "kind": "micro",
                    "kwargs": {"events": 10},
                    "wall_s": 1.0,
                    "events": 10,
                    "events_per_s": rate,
                },
                "meshgen.n49": {
                    "kind": "scenario",
                    "kwargs": {"nodes": 49},
                    "wall_s": wall,
                    "events": 100,
                    "events_per_s": 100 / wall,
                },
            },
        }

    def test_speedup_and_normalisation(self):
        old = self.fake_report(wall=2.0, rate=1000.0)
        new = self.fake_report(wall=1.0, rate=1000.0)
        rows = compare_reports(old, new)
        row = next(r for r in rows if r["case"] == "meshgen.n49")
        assert row["speedup"] == pytest.approx(2.0)
        assert row["norm_speedup"] == pytest.approx(2.0)
        # A machine twice as fast doubles every raw speedup for equal
        # code; normalisation divides the index back out.
        fast = self.fake_report(wall=1.0, rate=2000.0)
        row = next(
            r for r in compare_reports(old, fast) if r["case"] == "meshgen.n49"
        )
        assert row["speedup"] == pytest.approx(2.0)
        assert row["norm_speedup"] == pytest.approx(1.0)
        assert hardware_index(old, fast) == pytest.approx(2.0)

    def test_kwargs_mismatch_excluded(self):
        old = self.fake_report(2.0, 1000.0)
        new = self.fake_report(1.0, 1000.0)
        new["cases"]["meshgen.n49"]["kwargs"] = {"nodes": 50}
        names = [r["case"] for r in compare_reports(old, new)]
        assert "meshgen.n49" not in names

    def test_regression_detection(self):
        old = self.fake_report(1.0, 1000.0)
        slow = self.fake_report(1.5, 1000.0)
        rows = compare_reports(old, slow)
        assert regressions(rows, tolerance=0.30)
        assert not regressions(rows, tolerance=0.60)
        assert "meshgen.n49" in render_comparison(rows, 1.0)


class TestCli:
    def test_quick_filtered_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        rc = bench_main(["--quick", "--only", "engine_post", "--out", str(out)])
        assert rc == 0
        report = load_report(str(out))
        assert INDEX_CASE in report["cases"]

    def test_compare_gate_passes_against_itself(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert bench_main(["--quick", "--only", "engine_post", "--out", str(out)]) == 0
        rc = bench_main(
            [
                "--load",
                str(out),
                "--compare",
                str(out),
                "--max-regression",
                "0.30",
            ]
        )
        assert rc == 0
        assert "speedup" in capsys.readouterr().out

    def test_compare_without_common_cases_fails(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        dump_report({"schema": "repro.bench/1", "cases": {}}, str(a))
        dump_report({"schema": "repro.bench/1", "cases": {}}, str(b))
        assert bench_main(["--load", str(a), "--compare", str(b)]) == 1

"""Tests for the persistent benchmark subsystem (repro.bench)."""

import dataclasses
import json
import re
import subprocess
import sys

import pytest

import repro.bench as bench
from repro.bench import (
    SCHEMA,
    BenchCase,
    build_suite,
    compare_reports,
    dump_report,
    load_report,
    regressions,
    render_comparison,
    run_case,
    run_suite,
)
from repro.bench import probe as bench_probe
from repro.bench.micro import MICRO_CASES
from repro.bench.telemetrycase import telemetry_overhead
from repro.bench.__main__ import main as bench_main
from repro.topology import meshgen

SUITE = {
    "micro.engine_post_dispatch",
    "micro.engine_schedule_dispatch",
    "micro.engine_cancel_churn",
    "results.store.quick.n200",
    "telemetry.overhead",
    "figure.fig1.short",
    "meshgen.quick.n16",
    "meshgen.quick.n49",
    "meshgen.churn.quick.n25",
    "meshgen.n100",
    "meshgen.slotted.n100",
}

#: A small stand-in for the suite, so CLI tests run in well under a second.
TINY_CASE = BenchCase(
    "micro.engine_post_dispatch",
    "micro",
    "micro.engine_post_dispatch",
    (("events", 20_000),),
)


@pytest.fixture
def tiny_suite(monkeypatch):
    monkeypatch.setattr(bench, "build_suite", lambda: [TINY_CASE])


class TestSuiteDeclaration:
    def test_names_are_unique(self):
        names = [case.name for case in build_suite()]
        assert len(names) == len(set(names))

    def test_suite_is_the_eleven_declared_cases(self):
        names = [case.name for case in build_suite()]
        assert len(names) == 11
        assert set(names) == SUITE

    def test_micro_cases_execute(self):
        for name, (fn, kwargs) in MICRO_CASES.items():
            small = {k: min(v, 2_000) if isinstance(v, int) else v for k, v in kwargs.items()}
            stats = fn(**small)
            assert stats["events"] > 0, name

    def test_store_case_declared_and_executes(self):
        assert "results.store.quick.n200" in {case.name for case in build_suite()}
        from repro.bench.storecase import results_store

        stats = results_store(runs=10)
        # 10 inserts + 10 streamed frame rows + compare table lines.
        assert stats["events"] > 20


class TestProbe:
    def test_probe_loads_no_repro_module(self):
        # Loaded by file path in a fresh interpreter, so the package's
        # own imports cannot hide one the probe makes.
        code = (
            "import importlib.util, json, sys; "
            f"spec = importlib.util.spec_from_file_location('probe', {bench_probe.__file__!r}); "
            "probe = importlib.util.module_from_spec(spec); "
            "spec.loader.exec_module(probe); "
            "assert probe.probe_s() > 0; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m == 'repro' or m.startswith('repro.'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == []

    def test_probes_bracket_every_round(self, monkeypatch):
        probes = iter([1.0, 2.0, 3.0, 4.0])
        walls = iter([0.3, 0.1, 0.2])
        monkeypatch.setattr(bench, "probe_s", lambda: next(probes))
        monkeypatch.setattr(bench, "_timed_round", lambda case: (next(walls), 10))
        entry = run_case(TINY_CASE)
        # Round 2 was fastest; the probes before and after it read 2 and 3.
        assert entry["wall_s"] == 0.1
        assert entry["probe_s"] == 2.5
        assert next(probes, None) is None


class TestRunAndReport:
    def test_micro_case_entry_shape(self):
        case = next(c for c in build_suite() if c.name == "micro.engine_post_dispatch")
        entry = run_case(dataclasses.replace(case, repeat=1))
        assert set(entry) == {
            "kind", "kwargs", "wall_s", "probe_s", "events", "events_per_s"
        }
        assert entry["wall_s"] > 0
        assert entry["probe_s"] > 0
        assert entry["events"] > 0
        assert entry["events_per_s"] > 0
        assert entry["kwargs"] == case.kwargs_dict

    def test_every_meshgen_round_generates_its_layout(self, monkeypatch):
        generate, built = meshgen._generate, []
        monkeypatch.setattr(
            meshgen, "_generate", lambda spec: built.append(spec) or generate(spec)
        )
        kwargs = (("duration_s", 1.0), ("nodes", 9), ("warmup_s", 0.5))
        run_case(BenchCase("tiny", "scenario", "meshgen", kwargs, repeat=2))
        assert len(built) == 2
        telemetry_overhead(nodes=9, rounds=2)  # two detached, two attached
        assert len(built) == 6

    def test_run_suite_and_dump_roundtrip(self, tmp_path, tiny_suite):
        report = run_suite()
        assert report["schema"] == SCHEMA
        assert list(report["cases"]) == [TINY_CASE.name]
        path = tmp_path / "bench.json"
        dump_report(report, str(path))
        assert load_report(str(path)) == report
        # Deterministic serialization: sorted keys, trailing newline.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text) == report


class TestCompare:
    def fake_report(self, scale=1.0, probe=0.05):
        """A report whose every wall is ``scale`` times a fixed base."""
        cases = {}
        for name, kwargs, base, events in (
            ("micro.engine_post_dispatch", {"events": 10}, 0.4, 200_000),
            ("meshgen.n100", {"nodes": 100}, 0.5, 100_000),
        ):
            wall = base * scale
            cases[name] = {
                "kind": "micro" if name.startswith("micro.") else "scenario",
                "kwargs": kwargs,
                "wall_s": wall,
                "probe_s": probe,
                "events": events,
                "events_per_s": events / wall,
            }
        return {"schema": SCHEMA, "cases": cases}

    def test_speedup_and_normalisation(self):
        old = self.fake_report(scale=2.0)
        rows = compare_reports(old, self.fake_report())
        for row in rows:
            assert row["speedup"] == pytest.approx(2.0)
            assert row["norm_speedup"] == pytest.approx(2.0)
        # A machine twice as fast halves the probe too; normalisation
        # divides that back out of the raw speedup.
        rows = compare_reports(old, self.fake_report(scale=1.0, probe=0.025))
        for row in rows:
            assert row["speedup"] == pytest.approx(2.0)
            assert row["probe_ratio"] == pytest.approx(2.0)
            assert row["norm_speedup"] == pytest.approx(1.0)

    def test_kwargs_mismatch_excluded(self):
        old = self.fake_report(2.0)
        new = self.fake_report(1.0)
        new["cases"]["meshgen.n100"]["kwargs"] = {"nodes": 50}
        names = [r["case"] for r in compare_reports(old, new)]
        assert names == ["micro.engine_post_dispatch"]

    def test_regression_detection(self):
        old = self.fake_report()
        slow = self.fake_report()
        slow["cases"]["meshgen.n100"]["wall_s"] *= 1.5
        rows = compare_reports(old, slow)
        assert [r["case"] for r in regressions(rows, tolerance=0.30)] == ["meshgen.n100"]
        assert not regressions(rows, tolerance=0.60)
        assert "meshgen.n100" in render_comparison(rows)

    def test_uniform_slowdown_is_flagged(self):
        # The engine micros slow down with everything else; at equal
        # probe times that is the program, not the machine.
        rows = compare_reports(self.fake_report(), self.fake_report(scale=1.5))
        flagged = {row["case"] for row in regressions(rows, 0.30)}
        assert flagged == {"micro.engine_post_dispatch", "meshgen.n100"}

    def test_machine_twice_as_slow_flags_nothing(self):
        old = self.fake_report()
        rows = compare_reports(old, self.fake_report(scale=2.0, probe=0.10))
        assert len(rows) == 2
        assert not regressions(rows, 0.30)


class TestCli:
    def test_run_writes_report(self, tmp_path, tiny_suite):
        out = tmp_path / "b.json"
        assert bench_main(["--out", str(out)]) == 0
        report = load_report(str(out))
        assert list(report["cases"]) == [TINY_CASE.name]
        assert report["cases"][TINY_CASE.name]["probe_s"] > 0

    def test_compare_gate_passes_against_itself(self, tmp_path, capsys, tiny_suite):
        out = tmp_path / "b.json"
        assert bench_main(["--out", str(out)]) == 0
        # Two runs of the same code on the same machine; the bound only
        # has to absorb timing noise of a 20k-event micro here.
        rc = bench_main(["--compare", str(out), "--max-regression", "9"])
        assert rc == 0
        assert "speedup" in capsys.readouterr().out

    def test_compare_gate_fails_on_a_regression(self, tmp_path, capsys, tiny_suite):
        out = tmp_path / "b.json"
        assert bench_main(["--out", str(out)]) == 0
        fast = load_report(str(out))
        fast["cases"][TINY_CASE.name]["wall_s"] /= 10
        dump_report(fast, str(out))
        rc = bench_main(["--compare", str(out), "--max-regression", "0.30"])
        assert rc == 1
        assert f"REGRESSION {TINY_CASE.name}" in capsys.readouterr().err

    def test_compare_without_common_cases_fails(self, tmp_path, tiny_suite):
        old = tmp_path / "old.json"
        dump_report({"schema": SCHEMA, "cases": {}}, str(old))
        assert bench_main(["--compare", str(old)]) == 1

    def test_other_schema_baseline_is_an_input_error(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(bench, "build_suite", lambda: pytest.fail("suite ran"))
        old = tmp_path / "old.json"
        dump_report({"schema": "repro.bench/1", "cases": {}}, str(old))
        assert bench_main(["--compare", str(old), "--max-regression", "0.30"]) == 2
        assert "'repro.bench/1'" in capsys.readouterr().err

    def test_help_lists_only_out_compare_and_max_regression(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            bench_main(["--help"])
        assert exit_info.value.code == 0
        options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert options == {"--help", "--out", "--compare", "--max-regression"}

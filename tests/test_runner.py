"""Tests for the parallel sweep runner, specs, and deterministic export."""

import inspect
import json
import os
import filecmp

import pytest

from repro.experiments.export import export_records
from repro.experiments.runner import (
    SweepRunner,
    catalogue_requests,
    execute_request,
    expand_grid,
    _grid_requests,
    make_run_id,
    request_for,
)
from repro.experiments.specs import (
    SPECS,
    ParameterValueError,
    UnknownParameterError,
    get_spec,
    spec_ids,
)

# A scenario cheap enough to run many times in tests.
FAST = {"slots": 1500, "trials": 15}


def fast_request(**extra):
    kwargs = dict(FAST)
    kwargs.update(extra)
    return request_for("stability", kwargs)


class TestSpecs:
    def test_every_experiment_id_resolves(self):
        for spec_id in spec_ids():
            assert callable(get_spec(spec_id).resolve())

    def test_declared_params_match_entry_signatures(self):
        """The schema must not drift from the real run() signatures."""
        for spec in SPECS:
            signature = inspect.signature(spec.resolve())
            declared = {p.name for p in spec.params}
            actual = set(signature.parameters)
            assert declared == actual, f"{spec.id}: {declared} != {actual}"
            for param in spec.params:
                default = signature.parameters[param.name].default
                assert param.default == default, (
                    f"{spec.id}.{param.name}: declared {param.default!r}, "
                    f"signature has {default!r}"
                )

    def test_unknown_parameter_rejected(self):
        with pytest.raises(UnknownParameterError):
            get_spec("stability").validate({"duration_s": 5.0})

    def test_internal_errors_not_masked(self):
        """Errors raised inside an experiment propagate as themselves.

        The old CLI wrapped runner calls in ``except TypeError`` and
        reported *any* TypeError as "unknown option"; with schema
        validation up front, a failure inside the harness surfaces.
        """
        spec = get_spec("stability")
        with pytest.raises(Exception) as excinfo:
            # cw has fewer entries than hops -> fails inside the harness.
            spec.run(slots=100, trials=2, cw=(16,), hops=4)
        assert not isinstance(excinfo.value, UnknownParameterError)

    def test_string_coercion(self):
        spec = get_spec("stability")
        validated = spec.validate({"slots": "2000", "cw": "8,8,8,8"})
        assert validated["slots"] == 2000
        assert validated["cw"] == (8, 8, 8, 8)

    def test_bad_value_reported(self):
        with pytest.raises(ParameterValueError):
            get_spec("stability").validate({"slots": "many"})

    def test_integer_kinds_take_integers_only(self):
        meshgen = get_spec("meshgen")
        validated = meshgen.validate({"seed": 3.0, "nodes": 16.0})
        assert validated == {"seed": 3, "nodes": 16}
        assert all(type(value) is int for value in validated.values())
        for bad in (2.5, True, None, [3]):
            with pytest.raises(ParameterValueError, match="seed"):
                meshgen.validate({"seed": bad})
        stability = get_spec("stability")
        assert stability.validate({"cw": [8.0, 8, 8, 8]}) == {"cw": (8, 8, 8, 8)}
        for bad in (8, (8, 2.5), (8, False)):
            with pytest.raises(ParameterValueError, match="cw"):
                stability.validate({"cw": bad})
        # Float kinds are left alone, so duration_s=4 still exports as 4.
        assert type(meshgen.validate({"duration_s": 4})["duration_s"]) is int

    def test_other_kinds_check_their_values(self):
        meshgen = get_spec("meshgen")
        for name, bad in (
            ("algorithm", 1),
            ("topology", None),
            ("duration_s", True),
            ("loss", 2.5),
        ):
            with pytest.raises(ParameterValueError, match=name):
                meshgen.validate({name: bad})
        loadsweep = get_spec("loadsweep")
        for bad in (["a", None], [100.0, True], 100.0):
            with pytest.raises(ParameterValueError, match="loads_kbps"):
                loadsweep.validate({"loads_kbps": bad})
        assert loadsweep.validate({"loads_kbps": [50, 100.0]}) == {
            "loads_kbps": (50, 100.0)
        }

    def test_integral_float_seed_runs_the_integer_seed(self):
        from repro.results.types import canonical_result_dict

        spec = get_spec("meshgen")
        tiny = {"nodes": 9, "duration_s": 1.0, "warmup_s": 0.5, "fidelity": "slotted"}
        assert canonical_result_dict(spec.run(seed=3.0, **tiny)) == (
            canonical_result_dict(spec.run(seed=3, **tiny))
        )

    def test_alias_ids_present(self):
        ids = spec_ids()
        for required in ("fig6", "fig10", "table3", "table4"):
            assert required in ids

    def test_derived_seeds_deterministic_and_distinct(self):
        spec = get_spec("stability")
        seeds = [spec.derive_seed(9, i) for i in range(20)]
        assert seeds == [spec.derive_seed(9, i) for i in range(20)]
        assert len(set(seeds)) == 20


class TestGrid:
    def test_expand_grid_deterministic_order(self):
        grid = {"b": [1, 2], "a": ["x"]}
        points = expand_grid(grid)
        assert points == [{"a": "x", "b": 1}, {"a": "x", "b": 2}]

    def test_empty_grid_single_point(self):
        assert expand_grid({}) == [{}]

    def test_grid_requests_unique_run_ids(self):
        requests = _grid_requests("stability", {"slots": [100, 200], "trials": [5, 6]})
        assert len(requests) == 4
        assert len({r.run_id for r in requests}) == 4

    def test_replicates_need_seed_source(self):
        with pytest.raises(ValueError):
            _grid_requests("stability", {"slots": [100]}, replicates=2)

    def test_replicates_with_base_seed_derive_distinct_seeds(self):
        requests = _grid_requests(
            "stability", {"slots": [100]}, base_seed=3, replicates=3
        )
        seeds = [r.kwargs_dict["seed"] for r in requests]
        assert len(set(seeds)) == 3

    def test_seed_axis_wins_over_derivation(self):
        requests = _grid_requests("stability", {"seed": [1, 2]}, base_seed=99)
        assert [r.kwargs_dict["seed"] for r in requests] == [1, 2]

    def test_seed_axis_with_replicates_gets_unique_run_ids(self):
        """Regression: identical kwargs per replicate must still yield
        distinct run ids (SweepRunner rejects duplicates)."""
        requests = _grid_requests("stability", {"seed": [1, 2]}, replicates=2)
        assert len(requests) == 4
        assert len({r.run_id for r in requests}) == 4
        SweepRunner(jobs=1)  # and the batch is accepted
        # (no execution needed; uniqueness is what the runner checks)


class TestCatalogue:
    def test_aliases_collapse(self):
        requests, _ = catalogue_requests(["fig6", "fig7", "scenario1"])
        assert len(requests) == 1
        assert requests[0].spec_id == "scenario1"

    def test_strict_rejects_unknown_override(self):
        with pytest.raises(UnknownParameterError):
            catalogue_requests(["stability"], {"duration_s": 5.0}, strict=True)

    def test_lenient_skips_and_warns(self):
        requests, warnings = catalogue_requests(
            ["stability", "fig1"], {"duration_s": 5.0}, strict=False
        )
        assert len(requests) == 2
        by_id = {r.spec_id: r.kwargs_dict for r in requests}
        assert "duration_s" not in by_id["stability"]
        assert by_id["fig1"]["duration_s"] == 5.0
        assert any("stability" in w for w in warnings)


class TestSweepRunner:
    def test_rejects_duplicate_run_ids(self):
        request = fast_request()
        with pytest.raises(ValueError):
            SweepRunner().run([request, request])

    def test_serial_results_in_request_order(self):
        requests = _grid_requests("stability", {"trials": [5, 6, 7], "slots": [1000]})
        records = SweepRunner(jobs=1).run(requests)
        assert [r.request.run_id for r in records] == [r.run_id for r in requests]

    def test_on_record_fires_in_order(self):
        requests = _grid_requests("stability", {"trials": [5, 6], "slots": [1000]})
        seen = []
        SweepRunner(jobs=1).run(requests, on_record=lambda r: seen.append(r.request.run_id))
        assert seen == [r.run_id for r in requests]

    def test_parallel_and_serial_exports_byte_identical(self, tmp_path):
        """The determinism guarantee, extended across worker processes."""
        requests = _grid_requests(
            "stability", {"slots": [1200], "trials": [8, 9]}, base_seed=5
        )
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        os.makedirs(serial_dir)
        os.makedirs(parallel_dir)
        export_records(SweepRunner(jobs=1).run(requests), str(serial_dir))
        export_records(SweepRunner(jobs=2).run(requests), str(parallel_dir))

        comparison = filecmp.dircmp(str(serial_dir), str(parallel_dir))

        def assert_identical(cmp):
            assert not cmp.left_only and not cmp.right_only, (
                cmp.left_only,
                cmp.right_only,
            )
            # shallow=False byte comparison for the common files; the
            # manifest is the one deliberate exception — its `timing`
            # section records wall clocks — and is compared structurally
            # with timing removed.
            for name in cmp.common_files:
                left = os.path.join(cmp.left, name)
                right = os.path.join(cmp.right, name)
                if name == "manifest.json":
                    with open(left) as handle:
                        left_manifest = json.load(handle)
                    with open(right) as handle:
                        right_manifest = json.load(handle)
                    assert left_manifest.pop("timing")["runs"].keys()
                    assert right_manifest.pop("timing")["runs"].keys()
                    assert left_manifest == right_manifest
                else:
                    assert filecmp.cmp(left, right, shallow=False), name
            assert not [f for f in cmp.diff_files if f != "manifest.json"]
            for sub in cmp.subdirs.values():
                assert_identical(sub)

        assert_identical(comparison)

    def test_deterministic_artifacts_contain_no_wall_times(self, tmp_path):
        """Wall clocks live only in the manifest's timing section."""
        records = SweepRunner().run([fast_request()])
        export_records(records, str(tmp_path))
        for root, _, files in os.walk(tmp_path):
            for name in files:
                if name == "manifest.json":
                    continue
                with open(os.path.join(root, name)) as handle:
                    text = handle.read()
                assert "wall" not in text.lower(), name

    def test_manifest_timing_section(self, tmp_path):
        request = fast_request()
        records = SweepRunner().run([request])
        export_records(records, str(tmp_path))
        with open(os.path.join(str(tmp_path), "manifest.json")) as handle:
            manifest = json.load(handle)
        timing = manifest["timing"]
        entry = timing["runs"][request.run_id]
        assert entry["wall_s"] > 0
        assert timing["total_wall_s"] >= entry["wall_s"]


class TestExecuteAndExport:
    def test_execute_request_round_trip(self):
        record = execute_request(fast_request())
        assert record.result.experiment == "stability"
        assert record.wall_s > 0

    def test_result_json_round_trip(self, tmp_path):
        from repro.experiments.common import ExperimentResult

        record = execute_request(fast_request())
        export_records([record], str(tmp_path))
        path = os.path.join(str(tmp_path), record.request.run_id, "result.json")
        with open(path) as handle:
            data = json.load(handle)
        restored = ExperimentResult.from_dict(data)
        # Compare canonical JSON: tuples legitimately become lists.
        assert json.dumps(restored.to_dict(), sort_keys=True, default=list) == json.dumps(
            record.result.to_dict(), sort_keys=True, default=list
        )

    def test_manifest_and_experiments_md_written(self, tmp_path):
        records = SweepRunner().run([fast_request()])
        export_records(records, str(tmp_path))
        with open(os.path.join(str(tmp_path), "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["runs"][0]["experiment"] == "stability"
        with open(os.path.join(str(tmp_path), "EXPERIMENTS.md")) as handle:
            text = handle.read()
        assert "# Experiment results" in text
        assert "Table 4" in text

    def test_run_id_slug_is_filesystem_safe(self):
        run_id = make_run_id("loadsweep", {"loads_kbps": (50.0, 100.0), "seed": 1})
        assert "/" not in run_id and " " not in run_id


class TestCliIntegration:
    def test_run_all_list_and_sweep_smoke(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "stability" in out and "loads_kbps" in out

        code = main(
            [
                "sweep",
                "stability",
                "--grid",
                "trials=5,6",
                "--grid",
                "slots=1500",
                "--jobs",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert os.path.isfile(os.path.join(str(tmp_path), "EXPERIMENTS.md"))

    def test_legacy_spelling_still_works(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["stability", "--set", "slots=1500", "--set", "trials=10"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_unknown_grid_axis_exit_2(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["sweep", "stability", "--grid", "duration_s=1,2"]) == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_sequence_axis_commas_are_one_value(self, capsys):
        """Regression: --grid cw=8,8,8,8 is ONE 4-element grid value."""
        from repro.experiments.__main__ import main

        code = main(
            [
                "sweep",
                "stability",
                "--grid",
                "cw=8,8,8,8",
                "--grid",
                "slots=1000",
                "--grid",
                "trials=5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cw=(8, 8, 8, 8)" in out

    def test_keyerror_inside_experiment_propagates(self, monkeypatch):
        """Regression: only registry misses map to exit 2; KeyErrors
        raised inside a harness must propagate."""
        from repro.experiments import __main__ as cli
        from repro.experiments import specs

        def boom(self, **kwargs):
            raise KeyError("bug inside the experiment")

        monkeypatch.setattr(specs.ScenarioSpec, "run", boom)
        with pytest.raises(KeyError):
            cli.main(["run", "stability"])

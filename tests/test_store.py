"""Tests for the sqlite result store (repro.results.store).

Covers content-key identity (spelling-independent dedupe), the store's
put/get/index primitives, checkpoint/resume through SweepRunner/Study
(including a sweep killed by a fault plan), lazy streaming aggregation
over a store, the ``sqlite:PATH`` url rule, and the CLI ``--store``
surface.
"""

import os
import sqlite3

import pytest

from repro.experiments.__main__ import main
from repro.experiments.faults import FaultPlan, InjectedFault
from repro.experiments.runner import (
    RunRecord,
    SweepRunner,
    _grid_requests,
    execute_request,
    request_for,
)
from repro.experiments.specs import ParameterValueError
from repro.results import (
    ResultLoadError,
    ResultSet,
    SqliteStore,
    Study,
    compare,
    content_key,
    execute_requests,
    open_store,
    render_compare,
)
from repro.results.store import request_key

# A scenario cheap enough to run many times in tests.
FAST = {"slots": 1500, "trials": 15}

# A meshgen point small enough for compare/export tests.
FAST_MESHGEN = {"nodes": 9, "flows": 2, "duration_s": 3.0, "warmup_s": 1.0}


def fast_request(**extra):
    kwargs = dict(FAST)
    kwargs.update(extra)
    return request_for("stability", kwargs)


def fast_record(**extra) -> RunRecord:
    return execute_request(fast_request(**extra))


def meshgen_requests(**extra):
    grid = {
        name: value if isinstance(value, list) else [value]
        for name, value in {**FAST_MESHGEN, **extra}.items()
    }
    grid.setdefault("algorithm", ["none", "ezflow"])
    grid.setdefault("seed", [7])
    grid.setdefault("topology", ["mesh"])
    return _grid_requests("meshgen", grid)


# One param, so the tests keep their ``[sqlite]`` ids.
@pytest.fixture(params=["sqlite"])
def store(tmp_path):
    backend = SqliteStore(str(tmp_path / "store.sqlite"))
    yield backend
    backend.close()


class TestContentKey:
    def test_spelling_independent(self):
        # seed left at its declared default == seed set explicitly.
        from repro.experiments.specs import get_spec

        default_seed = get_spec("stability").defaults()["seed"]
        assert content_key("stability", FAST) == content_key(
            "stability", dict(FAST, seed=default_seed)
        )

    def test_seed_differentiates(self):
        assert content_key("stability", dict(FAST, seed=1)) != content_key(
            "stability", dict(FAST, seed=2)
        )

    def test_spec_differentiates(self):
        assert content_key("stability", {}) != content_key("meshgen", {})

    def test_cli_strings_match_typed_values(self):
        assert content_key("stability", {"slots": "1500"}) == content_key(
            "stability", {"slots": 1500}
        )

    def test_request_key_matches_content_key(self):
        request = fast_request(seed=3)
        assert request_key(request) == content_key("stability", dict(FAST, seed=3))


class TestStorePrimitives:
    def test_put_get_round_trip(self, store):
        record = fast_record(seed=3)
        key = store.put(record)
        assert key in store
        hit = store.get(record.request)
        assert hit is not None and hit.cached
        assert hit.wall_s == pytest.approx(record.wall_s)
        assert hit.result.to_dict() == record.result.to_dict()

    def test_get_miss_returns_none(self, store):
        assert store.get(fast_request(seed=99)) is None

    def test_get_hit_carries_incoming_request(self, store):
        store.put(fast_record(seed=3))
        renamed = fast_request(seed=3)
        renamed = type(renamed)(renamed.spec_id, renamed.kwargs, "custom~name")
        hit = store.get(renamed)
        assert hit.request.run_id == "custom~name"

    def test_dedupe_on_content_key(self, store):
        first = fast_record(seed=3)
        store.put(first)
        store.put(fast_record(seed=3))
        assert len(store) == 1
        assert store.keys() == [request_key(first.request)]

    def test_len_and_keys_sorted(self, store):
        for seed in (5, 3, 4):
            store.put(fast_record(seed=seed))
        assert len(store) == 3
        assert store.keys() == sorted(store.keys())

    def test_index_streams_sorted_by_run_id(self, store):
        for seed in (5, 3):
            store.put(fast_record(seed=seed))
        entries = list(store.index())
        assert [e["run_id"] for e in entries] == sorted(
            e["run_id"] for e in entries
        )
        for entry in entries:
            assert entry["spec_id"] == "stability"
            assert entry["kwargs"]["slots"] == FAST["slots"]
            assert isinstance(entry["scalars"], dict)

    def test_index_carries_scalar_metrics(self, store):
        record = execute_request(meshgen_requests()[0])
        store.put(record)
        (entry,) = list(store.index())
        assert entry["scalars"]["aggregate_kbps"] == pytest.approx(
            ResultSet.from_records([record]).runs[0].scalars["aggregate_kbps"]
        )

    def test_load_result_unknown_key(self, store):
        with pytest.raises((ResultLoadError, KeyError)):
            store.load_result("no-such-key")

    def test_digest_equal_for_equal_contents(self, store, tmp_path):
        records = [fast_record(seed=s) for s in (3, 4)]
        for record in records:
            store.put(record)
        other = SqliteStore(str(tmp_path / "other.sqlite"))
        for record in reversed(records):  # different insert order
            other.put(record)
        try:
            assert store.digest() == other.digest()
        finally:
            other.close()

    def test_digest_differs_for_different_contents(self, store, tmp_path):
        store.put(fast_record(seed=3))
        other = SqliteStore(str(tmp_path / "other.sqlite"))
        other.put(fast_record(seed=4))
        try:
            assert store.digest() != other.digest()
        finally:
            other.close()


class TestSqliteBackend:
    def test_schema_version_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        SqliteStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value='999' WHERE key='schema'")
        conn.commit()
        conn.close()
        with pytest.raises(ResultLoadError, match="schema v999"):
            SqliteStore(path)

    def test_scalars_in_indexed_columns(self, tmp_path):
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        record = execute_request(meshgen_requests()[0])
        key = store.put(record)
        rows = dict(
            store._conn.execute(
                "SELECT name, num FROM scalars WHERE content_key=?", (key,)
            )
        )
        store.close()
        scalars = ResultSet.from_records([record])[record.request.run_id].scalars
        numeric = {
            name: value
            for name, value in scalars.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
        for name, value in numeric.items():
            assert rows[name] == pytest.approx(float(value))

    def test_result_set_is_lazy(self, tmp_path):
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        for seed in (3, 4):
            store.put(fast_record(seed=seed))
        results = ResultSet.from_store(store)
        assert all(not run.materialized for run in results)
        frame = results.scalars_frame()
        assert len(frame.rows) == 2
        assert all(not run.materialized for run in results)  # still lazy
        first = results.runs[0]
        assert first.result.tables  # materialises on demand
        assert first.materialized
        store.close()

    def test_result_set_filters_before_materialising(self, tmp_path):
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        for seed in (3, 4):
            store.put(fast_record(seed=seed))
        results = ResultSet.from_store(store, seed=3)
        assert len(results) == 1
        assert results.runs[0].param("seed") == 3
        store.close()

    def test_open_store_rejects_bare_paths(self, tmp_path, capsys):
        # Only sqlite: names a store: a bare path (whatever its suffix,
        # even an existing sqlite file) or an unknown prefix is an input
        # error naming that spelling, and the CLI exits 2.
        existing = str(tmp_path / "runs.sqlite")
        SqliteStore(existing).close()
        for url in (existing, str(tmp_path / "tree"), f"file:{tmp_path / 'x'}"):
            with pytest.raises(ParameterValueError, match="'sqlite:PATH'"):
                open_store(url)
        argv = ["run", "stability", "--set", "slots=1500", "--store", existing]
        assert main(argv) == 2
        assert "'sqlite:PATH'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "tree")

    def test_open_store_explicit_schemes(self, tmp_path, capsys):
        # sqlite: opens a store on any path; dir: is no store, even on a
        # .sqlite-looking path, and the CLI exits 2 without creating it.
        store = open_store(f"sqlite:{tmp_path / 'anything.weird'}")
        assert isinstance(store, SqliteStore)
        store.close()
        for url in (f"dir:{tmp_path / 'tree.sqlite'}", "dir:"):
            with pytest.raises(ParameterValueError, match="'sqlite:PATH'"):
                open_store(url)
        tree = f"dir:{tmp_path / 'tree'}"
        argv = ["run", "stability", "--set", "slots=1500", "--store", tree]
        assert main(argv) == 2
        assert "'sqlite:PATH'" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "tree")
        assert not os.path.exists(tmp_path / "tree.sqlite")
        with pytest.raises(ValueError, match="empty path"):
            open_store("sqlite:")

    def test_input_error_creates_no_store(self, tmp_path, capsys):
        path = tmp_path / "runs.sqlite"
        argv = [
            "sweep", "stability", "--set", "slots=100", "--set", "trials=2",
            "--store", f"sqlite:{path}",
            "--telemetry", str(tmp_path / "tel"), "--telemetry-interval", "0",
        ]
        assert main(argv) == 2
        assert "--telemetry-interval" in capsys.readouterr().err
        assert not path.exists()
        assert not (tmp_path / "tel").exists()

    def test_study_run_accepts_store_urls(self, tmp_path):
        url = f"sqlite:{tmp_path / 'runs.sqlite'}"
        first = Study("stability").set(**FAST).grid(seed=[3]).run(store=url)
        assert len(first) == 1
        hits = []
        Study("stability").set(**FAST).grid(seed=[3]).run(
            store=url, on_record=lambda record: hits.append(record.cached)
        )
        assert hits == [True]  # the url named the same backing store


class TestSweepResume:
    def test_second_run_is_all_cache_hits(self, store):
        requests = [fast_request(seed=s) for s in (3, 4, 5)]
        first = SweepRunner(jobs=1).run(requests, store=store)
        assert all(not record.cached for record in first)
        second = SweepRunner(jobs=1).run(requests, store=store)
        assert all(record.cached for record in second)
        assert [r.request.run_id for r in second] == [r.run_id for r in requests]
        for before, after in zip(first, second):
            assert before.result.to_dict() == after.result.to_dict()

    def test_on_record_fires_in_request_order_with_hits(self, store):
        requests = [fast_request(seed=s) for s in (3, 4, 5)]
        SweepRunner(jobs=1).run(requests[1:2], store=store)  # pre-warm seed=4
        seen = []
        SweepRunner(jobs=1).run(
            requests, on_record=lambda r: seen.append(r.request.run_id), store=store
        )
        assert seen == [r.run_id for r in requests]

    def test_injected_fault_stops_after_n_executed(self, store):
        requests = [fast_request(seed=s) for s in (3, 4, 5)]
        with pytest.raises(InjectedFault):
            SweepRunner(jobs=1).run(
                requests, store=store, faults=FaultPlan.parse("2=raise")
            )
        assert len(store) == 2

    def test_resumed_store_equals_uninterrupted(self, tmp_path):
        requests = [fast_request(seed=s) for s in (3, 4, 5, 6)]
        interrupted = SqliteStore(str(tmp_path / "interrupted.sqlite"))
        with pytest.raises(InjectedFault):
            SweepRunner(jobs=1).run(
                requests, store=interrupted, faults=FaultPlan.parse("2=raise")
            )
        resumed = SweepRunner(jobs=1).run(requests, store=interrupted)
        assert sum(record.cached for record in resumed) == 2

        reference = SqliteStore(str(tmp_path / "reference.sqlite"))
        SweepRunner(jobs=1).run(requests, store=reference)
        try:
            assert interrupted.digest() == reference.digest()
        finally:
            interrupted.close()
            reference.close()

    @pytest.mark.slow
    def test_resume_parallel_matches_serial(self, tmp_path):
        requests = [fast_request(seed=s) for s in (3, 4, 5, 6)]
        parallel = SqliteStore(str(tmp_path / "parallel.sqlite"))
        with SweepRunner(jobs=2) as runner:
            with pytest.raises(InjectedFault):
                runner.run(
                    requests, store=parallel, faults=FaultPlan.parse("2=raise")
                )
            runner.run(requests, store=parallel)
        serial = SqliteStore(str(tmp_path / "serial.sqlite"))
        SweepRunner(jobs=1).run(requests, store=serial)
        try:
            assert parallel.digest() == serial.digest()
        finally:
            parallel.close()
            serial.close()

    def test_execute_requests_and_study_accept_store(self, tmp_path):
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        results = (
            Study("stability").set(**FAST).grid(seed=[3, 4]).run(store=store)
        )
        assert len(results) == 2
        again = execute_requests(
            Study("stability").set(**FAST).grid(seed=[3, 4]).requests(),
            store=store,
        )
        assert len(store) == 2
        assert {run.run_id for run in again} == {run.run_id for run in results}
        store.close()


class TestStreamingCompare:
    def test_compare_over_store_matches_live(self, tmp_path):
        records = [execute_request(r) for r in meshgen_requests(seed=[7, 11])]
        live = render_compare(compare(ResultSet.from_records(records)))
        store = SqliteStore(str(tmp_path / "store.sqlite"))
        for record in records:
            store.put(record)
        stored = render_compare(compare(ResultSet.from_store(store)))
        store.close()
        assert stored == live


class TestResultLoadErrorSurface:
    def test_missing_artifact_names_run_and_file(self, tmp_path):
        from repro.results import RunResult

        with pytest.raises(ResultLoadError) as excinfo:
            RunResult.load(str(tmp_path / "absent"), run_id="r1")
        assert excinfo.value.run_id == "r1"
        assert "result.json" in str(excinfo.value.artifact)

    def test_corrupt_artifact_is_load_error(self, tmp_path):
        run_dir = tmp_path / "r1"
        run_dir.mkdir()
        (run_dir / "result.json").write_text("{ nope")
        from repro.results import RunResult

        with pytest.raises(ResultLoadError, match="corrupt"):
            RunResult.load(str(run_dir), run_id="r1")


class TestCLI:
    def sweep_argv(self, *extra):
        return [
            "sweep",
            "stability",
            "--set",
            "slots=1500",
            "--set",
            "trials=15",
            "--grid",
            "seed=3,4",
            *extra,
        ]

    def test_sweep_store_reports_hits(self, tmp_path, capsys):
        store_path = f"sqlite:{tmp_path / 'store.sqlite'}"
        assert main(self.sweep_argv("--store", store_path)) == 0
        assert "2 executed" in capsys.readouterr().err
        assert main(self.sweep_argv("--store", store_path)) == 0
        assert "2 cache hit(s), 0 executed" in capsys.readouterr().err

    def test_fault_exit_code_then_resume(self, tmp_path, capsys):
        # A fail-mode fault plan kills the sweep at request 1; the run
        # before it is already checkpointed, so the resume executes one.
        store_path = f"sqlite:{tmp_path / 'store.sqlite'}"
        with pytest.raises(InjectedFault):
            main(self.sweep_argv("--store", store_path, "--fault-plan", "1=raise"))
        capsys.readouterr()
        out = str(tmp_path / "out")
        assert main(self.sweep_argv("--store", store_path, "--out", out)) == 0
        assert "1 cache hit(s), 1 executed" in capsys.readouterr().err
        assert os.path.isfile(os.path.join(out, "manifest.json"))

    def test_run_accepts_store(self, tmp_path, capsys):
        store_path = f"sqlite:{tmp_path / 'store.sqlite'}"
        argv = [
            "run",
            "stability",
            "--set",
            "slots=1500",
            "--set",
            "trials=15",
            "--store",
            store_path,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().err

    def test_compare_store_file_target(self, tmp_path, capsys):
        store_path = str(tmp_path / "store.sqlite")
        sweep = [
            "sweep",
            "meshgen",
            "--set",
            "nodes=9",
            "--set",
            "flows=2",
            "--set",
            "duration_s=3",
            "--set",
            "warmup_s=1",
            "--set",
            "topology=mesh",
            "--grid",
            "algorithm=none,ezflow",
            "--store",
            f"sqlite:{store_path}",
        ]
        assert main(sweep) == 0
        capsys.readouterr()
        assert main(["compare", store_path]) == 0
        out = capsys.readouterr().out
        assert "Deltas vs algorithm=none" in out

    def test_compare_rejects_grid_on_store_target(self, tmp_path, capsys):
        store_path = str(tmp_path / "store.sqlite")
        SqliteStore(store_path).close()
        assert main(["compare", store_path, "--set", "nodes=9"]) == 2
        assert "store targets" in capsys.readouterr().err

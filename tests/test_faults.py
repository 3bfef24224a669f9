"""Fault-tolerant sweep execution: error policies, timeouts, supervision.

The chaos battery: every failure mode the supervised runner handles —
a run raising, hanging past ``--run-timeout``, or hard-crashing its
worker process — is injected deterministically via
:class:`repro.experiments.faults.FaultPlan` and exercised under all
three error policies (``fail``/``continue``/``retry:N``), in the inline
and the process lane.

Determinism stakes: surviving-run exports and ``failures.json`` must be
byte-identical at any ``--jobs`` count, and a resume after failures must
re-execute only the failed runs and converge on the same store digest an
uninterrupted sweep produces.
"""

import json
import os
import traceback
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from types import SimpleNamespace

import pytest

from repro.experiments.faults import FaultAction, FaultPlan, InjectedFault
from repro.experiments.runner import (
    ErrorPolicy,
    RunFailure,
    RunTimeoutError,
    SweepRunner,
    WorkerCrashError,
    _Pool,
    _ProcessLane,
    request_for,
)
from repro.experiments.specs import ParameterValueError
from repro.results import (
    IncompleteSweepWarning,
    ResultSet,
    compare,
    open_store,
)
from repro.results.store import SqliteStore

#: A fast, deterministic scenario for chaos runs (~10 ms each).
FAST = {"slots": 300, "trials": 5}

#: Zero-backoff retry policies so retry tests do not sleep.
RETRY_2 = ErrorPolicy("continue", retries=2, backoff_base_s=0.0, backoff_cap_s=0.0)


def fast_requests(seeds=(1, 2, 3, 4)):
    return [request_for("stability", dict(FAST, seed=seed)) for seed in seeds]


class TestErrorPolicy:
    def test_parse_spellings(self):
        assert ErrorPolicy.parse("fail") == ErrorPolicy("fail")
        assert ErrorPolicy.parse("continue") == ErrorPolicy("continue")
        retried = ErrorPolicy.parse("retry:3")
        assert retried.mode == "continue" and retried.retries == 3

    @pytest.mark.parametrize("bad", ["", "retry", "retry:0", "retry:x", "abort"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            ErrorPolicy.parse(bad)

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            ErrorPolicy("explode")
        with pytest.raises(ValueError):
            ErrorPolicy("continue", retries=-1)

    def test_backoff_doubles_and_caps(self):
        policy = ErrorPolicy("continue", retries=5, backoff_base_s=0.1,
                             backoff_cap_s=0.25)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.25)  # capped
        assert policy.backoff_s(10) == pytest.approx(0.25)


class TestFaultPlanParsing:
    def test_selectors_and_actions(self):
        plan = FaultPlan.parse("2=raise+tree=hang:60+5=crash:7/2")
        assert len(plan.clauses) == 3
        assert plan.action_for("anything", 2).kind == "raise"
        assert plan.action_for("meshgen~topology=tree", 0).kind == "hang"
        assert plan.action_for("meshgen~topology=tree", 0).param == 60.0
        crash = plan.action_for("x", 5)
        assert crash.kind == "crash" and crash.param == 7.0 and crash.times == 2
        assert plan.action_for("x", 0) is None

    def test_first_matching_clause_wins(self):
        plan = FaultPlan.parse("*=raise+1=crash")
        assert plan.action_for("x", 1).kind == "raise"

    def test_selector_with_equals_in_run_id(self):
        # run ids contain '=', so the clause splits on the LAST '='.
        plan = FaultPlan.parse("seed=3=raise")
        assert plan.action_for("stability~seed=3~slots=300", 0).kind == "raise"
        assert plan.action_for("stability~seed=4~slots=300", 0) is None

    def test_sample_selector_is_seeded(self):
        plan = FaultPlan.parse("sample:0.5:42=raise")
        fired = [
            run_id
            for run_id in (f"run{i}" for i in range(40))
            if plan.action_for(run_id, 0) is not None
        ]
        assert 0 < len(fired) < 40  # P=0.5 fires some, not all
        again = FaultPlan.parse("sample:0.5:42=raise")
        assert fired == [
            run_id
            for run_id in (f"run{i}" for i in range(40))
            if again.action_for(run_id, 0) is not None
        ]
        reseeded = FaultPlan.parse("sample:0.5:43=raise")
        assert fired != [
            run_id
            for run_id in (f"run{i}" for i in range(40))
            if reseeded.action_for(run_id, 0) is not None
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "raise",  # no selector
            "=raise",
            "2=",
            "2=explode",
            "2=raise:5",  # raise takes no parameter
            "2=hang:abc",
            "2=hang:-1",
            "2=crash:x",
            "2=raise/0",
            "2=raise/x",
            "sample:2:7=raise",  # P outside [0, 1]
            "sample:0.5=raise",  # missing seed
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ParameterValueError):
            FaultPlan.parse(bad)

    def test_times_cap_releases_later_attempts(self):
        action = FaultAction.parse("raise/2")
        with pytest.raises(InjectedFault):
            action.trigger("r", 1)
        with pytest.raises(InjectedFault):
            action.trigger("r", 2)
        action.trigger("r", 3)  # past the cap: no fault


class TestRaisingRuns:
    """The `raise` fault under every policy, serial and pooled."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fail_policy_propagates(self, jobs):
        plan = FaultPlan.parse("1=raise")
        with SweepRunner(jobs=jobs) as runner:
            with pytest.raises(InjectedFault, match="raised"):
                runner.run(fast_requests(), policy="fail", faults=plan)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_continue_policy_isolates(self, jobs):
        plan = FaultPlan.parse("1=raise")
        with SweepRunner(jobs=jobs) as runner:
            records = runner.run(fast_requests(), policy="continue", faults=plan)
        assert len(records) == 4
        failed = [r for r in records if not r.ok]
        assert len(failed) == 1
        failure = failed[0].failure
        assert failure.kind == "exception"
        assert failure.error == "InjectedFault"
        assert failure.attempts == 1
        assert "InjectedFault" in failure.traceback
        assert failure.run_id == fast_requests()[1].run_id
        # record order is request order, failure in place
        assert [r.request.run_id for r in records] == [
            r.run_id for r in fast_requests()
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_policy_exhausts_attempts(self, jobs):
        plan = FaultPlan.parse("1=raise")
        with SweepRunner(jobs=jobs) as runner:
            records = runner.run(fast_requests(), policy=RETRY_2, faults=plan)
        failure = next(r for r in records if not r.ok).failure
        assert failure.attempts == 3  # 1 initial + 2 retries

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_policy_heals_transient_fault(self, jobs):
        plan = FaultPlan.parse("1=raise/1")  # first attempt only
        with SweepRunner(jobs=jobs) as runner:
            records = runner.run(fast_requests(), policy=RETRY_2, faults=plan)
        assert all(r.ok for r in records)

    def test_failure_records_identical_across_jobs(self):
        plan = FaultPlan.parse("1=raise")
        with SweepRunner() as runner:
            serial = runner.run(fast_requests(), policy="continue", faults=plan)
        with SweepRunner(jobs=2) as runner:
            pooled = runner.run(fast_requests(), policy="continue", faults=plan)
        f_serial = next(r for r in serial if not r.ok).failure
        f_pooled = next(r for r in pooled if not r.ok).failure
        # byte-identical including the traceback text — the _attempt
        # shim catches at the same stack depth inline and in workers
        assert f_serial.to_dict() == f_pooled.to_dict()

    def test_inline_fail_keeps_native_traceback_under_retries(self):
        # The inline lane re-raises the original exception object, not
        # a copy, so the frame that raised it survives — also after the
        # run went through the retry loop.
        plan = FaultPlan.parse("1=raise")
        policy = ErrorPolicy("fail", retries=1, backoff_base_s=0.0,
                             backoff_cap_s=0.0)
        with SweepRunner(jobs=1) as runner:
            with pytest.raises(InjectedFault) as excinfo:
                runner.run(fast_requests(), policy=policy, faults=plan)
        frames = traceback.extract_tb(excinfo.value.__traceback__)
        assert any(
            frame.name == "trigger" and os.path.basename(frame.filename) == "faults.py"
            for frame in frames
        )

    def test_fail_policy_serial_raises_original_exception(self):
        # The inline lane: a genuine experiment error propagates as
        # itself with its genuine traceback.
        bad = request_for("stability", dict(FAST, seed=1))
        plan = FaultPlan.parse("*=raise")
        with SweepRunner() as runner:
            with pytest.raises(InjectedFault):
                runner.run([bad], faults=plan)


class TestDuplicateRunIds:
    def test_error_names_the_offenders(self):
        requests = fast_requests((1, 2))
        dupes = [requests[0], requests[1], requests[0], requests[1]]
        with SweepRunner() as runner:
            with pytest.raises(ValueError) as err:
                runner.run(dupes)
        assert requests[0].run_id in str(err.value)
        assert requests[1].run_id in str(err.value)


@pytest.mark.slow
class TestWorkerDeath:
    """Real worker crashes (os._exit) under every policy."""

    def test_fail_policy_raises_worker_crash(self):
        plan = FaultPlan.parse("2=crash")
        with SweepRunner(jobs=2) as runner:
            with pytest.raises(WorkerCrashError, match="worker process died"):
                runner.run(fast_requests(), policy="fail", faults=plan)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_continue_policy_quarantines_poison_run(self, jobs):
        # jobs=1 still works: a crash clause forces pooled execution.
        plan = FaultPlan.parse("2=crash")
        with SweepRunner(jobs=jobs) as runner:
            records = runner.run(fast_requests(), policy="continue", faults=plan)
        assert len(records) == 4
        failed = [r for r in records if not r.ok]
        assert len(failed) == 1
        failure = failed[0].failure
        assert failure.kind == "worker-crash"
        assert failure.error == "WorkerCrashError"
        assert failure.run_id == fast_requests()[2].run_id
        # innocent runs all survived with real results
        assert sum(1 for r in records if r.ok) == 3

    def test_retry_policy_charges_each_crash_attempt(self):
        plan = FaultPlan.parse("2=crash")
        policy = ErrorPolicy("continue", retries=1, backoff_base_s=0.0,
                             backoff_cap_s=0.0)
        with SweepRunner(jobs=2) as runner:
            records = runner.run(fast_requests(), policy=policy, faults=plan)
        failure = next(r for r in records if not r.ok).failure
        assert failure.kind == "worker-crash"
        assert failure.attempts == 2

    def test_retry_heals_transient_crash(self):
        plan = FaultPlan.parse("2=crash/1")  # crashes the first attempt only
        with SweepRunner(jobs=2) as runner:
            records = runner.run(fast_requests(), policy=RETRY_2, faults=plan)
        assert all(r.ok for r in records)

    def test_pool_survives_for_subsequent_batches(self):
        # A crash breaks the executor; the runner must transparently
        # rebuild so the same SweepRunner keeps working afterwards.
        plan = FaultPlan.parse("2=crash")
        with SweepRunner(jobs=2) as runner:
            first = runner.run(fast_requests(), policy="continue", faults=plan)
            second = runner.run(fast_requests((7, 8)), policy="continue")
        assert sum(1 for r in first if not r.ok) == 1
        assert all(r.ok for r in second)


class TestCrashAttribution:
    """Whom a broken pool charges, decided without real processes."""

    def test_a_run_seen_in_flight_is_not_charged_for_an_unseen_one(self):
        # A poll saw run 0 on one worker. The other worker then finished
        # its run, took run 1 and died before the next poll.
        class DeadExecutor:
            def shutdown(self, wait, cancel_futures):
                pass

        lane = _ProcessLane(SimpleNamespace(_executor=None, _channel=None), None, None)
        pool = lane.pools["main"] = _Pool(DeadExecutor(), 2)
        for position in range(3):
            future = Future()
            future.set_exception(BrokenProcessPool("a worker died"))
            pool.tasks[future] = (position, ("task", position))
        lane.started[0] = 0.0
        resubmitted = []
        lane.submit = lambda position, task, quarantine=False: resubmitted.append(
            (position, quarantine)
        )
        lane._handle_break("main")
        assert lane.outbox == []  # nobody charged on a guess
        assert resubmitted == [(0, True), (1, True), (2, False)]


@pytest.mark.slow
class TestRunTimeouts:
    """Hung runs killed by --run-timeout under every policy."""

    def test_fail_policy_raises_timeout(self):
        plan = FaultPlan.parse("1=hang:60")
        with SweepRunner(jobs=2) as runner:
            with pytest.raises(RunTimeoutError, match="timeout"):
                runner.run(
                    fast_requests(), policy="fail", faults=plan, run_timeout=2.0
                )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_continue_policy_charges_only_the_hung_run(self, jobs):
        # jobs=1 still works: a run_timeout forces pooled execution.
        plan = FaultPlan.parse("1=hang:60")
        with SweepRunner(jobs=jobs) as runner:
            records = runner.run(
                fast_requests(), policy="continue", faults=plan, run_timeout=2.0
            )
        failed = [r for r in records if not r.ok]
        assert len(failed) == 1
        failure = failed[0].failure
        assert failure.kind == "timeout"
        assert failure.error == "RunTimeoutError"
        assert failure.run_id == fast_requests()[1].run_id
        assert sum(1 for r in records if r.ok) == 3

    def test_retry_heals_transient_hang(self):
        plan = FaultPlan.parse("1=hang:60/1")
        policy = ErrorPolicy("continue", retries=1, backoff_base_s=0.0,
                             backoff_cap_s=0.0)
        with SweepRunner(jobs=2) as runner:
            records = runner.run(
                fast_requests(), policy=policy, faults=plan, run_timeout=2.0
            )
        assert all(r.ok for r in records)

    def test_timeout_requires_positive(self):
        with SweepRunner() as runner:
            with pytest.raises(ValueError):
                runner.run(fast_requests((1,)), run_timeout=0)


class TestFailureStores:
    """Failure records checkpoint into the store."""

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_put_failure_round_trips(self, tmp_path, backend):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        request = fast_requests((1,))[0]
        failure = RunFailure(
            run_id=request.run_id,
            spec_id=request.spec_id,
            kwargs=request.kwargs_dict,
            kind="exception",
            error="ValueError",
            message="boom",
            traceback="Traceback ...",
            attempts=2,
            wall_s=0.5,
        )
        with store:
            store.put_failure(request, failure)
            loaded = store.failures()
            assert len(loaded) == 1
            assert loaded[0].to_dict() == failure.to_dict()
            assert loaded[0].wall_s == pytest.approx(0.5)
            # a failure is NOT a cache hit: the request re-executes
            assert store.get(request) is None
            assert failure.run_id in store.canonical_dump()["failures"]

    @pytest.mark.parametrize("backend", ["sqlite"])
    def test_success_supersedes_failure(self, tmp_path, backend):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        request = fast_requests((1,))[0]
        failure = RunFailure(
            run_id=request.run_id, spec_id=request.spec_id,
            kwargs=request.kwargs_dict, error="ValueError", message="boom",
        )
        with store:
            store.put_failure(request, failure)
            with SweepRunner() as runner:
                records = runner.run([request], store=store)
            assert records[0].ok and not records[0].cached
            assert store.failures() == []
            assert store.get(request) is not None

    def test_sweep_checkpoints_failures(self, tmp_path):
        store = SqliteStore(str(tmp_path / "s.sqlite"))
        plan = FaultPlan.parse("1=raise")
        with store, SweepRunner() as runner:
            runner.run(fast_requests(), policy="continue", faults=plan, store=store)
            assert len(store.failures()) == 1
            assert len(store) == 3
            rs = store.result_set()
            assert len(rs) == 3 and len(rs.failures) == 1 and not rs.ok


class TestResumeAfterFailures:
    def test_resume_executes_only_failed_runs(self, tmp_path):
        store_path = "sqlite:" + str(tmp_path / "store.sqlite")
        plan = FaultPlan.parse("1=raise")
        with open_store(store_path) as store, SweepRunner() as runner:
            runner.run(fast_requests(), policy="continue", faults=plan, store=store)
        # resume without the chaos plan: 3 cache hits, 1 execution
        executed = []
        with open_store(store_path) as store, SweepRunner() as runner:
            records = runner.run(
                fast_requests(),
                on_record=lambda r: executed.append(r) if not r.cached else None,
                store=store,
            )
            assert all(r.ok for r in records)
            assert [r.request.run_id for r in executed] == [
                fast_requests()[1].run_id
            ]
            assert store.failures() == []
        # the resumed store equals an uninterrupted sweep's
        ref_url = "sqlite:" + str(tmp_path / "ref.sqlite")
        with open_store(ref_url) as ref, SweepRunner() as runner:
            runner.run(fast_requests(), store=ref)
            with open_store(store_path) as resumed:
                assert resumed.digest() == ref.digest()

    @pytest.mark.slow
    def test_surviving_exports_byte_identical_across_jobs(self, tmp_path):
        """The acceptance-criteria core: chaos sweep at jobs 1 vs 4
        exports byte-identical surviving artefacts and failures.json,
        and a resumed tree equals an uninterrupted one."""
        plan = FaultPlan.parse("1=raise+2=crash")
        trees = {}
        stores = {}
        for jobs in (1, 4):
            out = tmp_path / f"jobs{jobs}"
            stores[jobs] = f"sqlite:{tmp_path / f'jobs{jobs}.sqlite'}"
            with open_store(stores[jobs]) as store, SweepRunner(jobs=jobs) as runner:
                records = runner.run(
                    fast_requests(), policy="continue", faults=plan, store=store
                )
            ResultSet.from_records(records).save(str(out))
            trees[jobs] = out
        # compare the full trees, skipping the timing carrier
        for root, _dirs, files in os.walk(trees[1]):
            rel = os.path.relpath(root, trees[1])
            for name in files:
                if name == "manifest.json":
                    continue
                one = os.path.join(root, name)
                four = os.path.join(trees[4], rel, name)
                with open(one, "rb") as h1, open(four, "rb") as h4:
                    assert h1.read() == h4.read(), f"{rel}/{name} differs"
        for jobs in (1, 4):
            with open(trees[jobs] / "failures.json") as handle:
                failures = json.load(handle)["failures"]
            assert [f["run_id"] for f in failures] == sorted(
                fast_requests()[i].run_id for i in (1, 2)
            )
            assert {f["kind"] for f in failures} == {"exception", "worker-crash"}
        # resume one store to completion: its re-saved tree is
        # byte-identical to an uninterrupted one
        with open_store(stores[1]) as store, SweepRunner() as runner:
            records = runner.run(fast_requests(), store=store)
        ResultSet.from_records(records).save(str(trees[1]))
        ref, ref_url = tmp_path / "ref", f"sqlite:{tmp_path / 'ref.sqlite'}"
        with open_store(ref_url) as store, SweepRunner() as runner:
            records = runner.run(fast_requests(), store=store)
        ResultSet.from_records(records).save(str(ref))
        assert not (trees[1] / "failures.json").exists()
        for root, _dirs, files in os.walk(ref):
            rel = os.path.relpath(root, ref)
            for name in files:
                if name == "manifest.json":
                    continue
                with open(os.path.join(root, name), "rb") as h1:
                    with open(trees[1] / rel / name, "rb") as h2:
                        assert h1.read() == h2.read(), f"{rel}/{name} differs"


class TestResultsPlaneDegradation:
    def run_with_failures(self):
        plan = FaultPlan.parse("1=raise")
        with SweepRunner() as runner:
            records = runner.run(fast_requests(), policy="continue", faults=plan)
        return ResultSet.from_records(records)

    def test_result_set_surfaces_failures(self):
        results = self.run_with_failures()
        assert len(results) == 3
        assert len(results.failures) == 1
        assert not results.ok
        assert results.failures[0].error == "InjectedFault"

    def test_failures_survive_filter_and_slices(self):
        results = self.run_with_failures()
        assert results.filter(slots=300).failures == results.failures
        assert results[0:2].failures == results.failures

    def test_save_and_load_round_trip_failures(self, tmp_path):
        results = self.run_with_failures()
        out = str(tmp_path / "out")
        results.save(out)
        with open(os.path.join(out, "failures.json")) as handle:
            data = json.load(handle)
        assert len(data["failures"]) == 1
        assert "wall_s" not in data["failures"][0]  # deterministic form
        loaded = ResultSet.load(out)
        assert len(loaded) == 3
        assert [f.to_dict() for f in loaded.failures] == [
            f.to_dict() for f in results.failures
        ]

    def test_complete_save_removes_stale_failures_json(self, tmp_path):
        out = str(tmp_path / "out")
        self.run_with_failures().save(out)
        assert os.path.exists(os.path.join(out, "failures.json"))
        with SweepRunner() as runner:
            records = runner.run(fast_requests())
        ResultSet.from_records(records).save(out)
        assert not os.path.exists(os.path.join(out, "failures.json"))

    def test_compare_warns_on_incomplete_sweep(self):
        # stability has no algorithm axis; build a tiny meshgen-free
        # comparison over the failure-carrying set just to provoke the
        # warning path, using seed as the variant axis.
        results = self.run_with_failures()
        with pytest.warns(IncompleteSweepWarning, match="1 run\\(s\\) failed"):
            try:
                compare(results, baseline={"seed": "1"})
            except Exception:
                pass  # table shape is not under test here

    def test_compare_silent_on_complete_sweep(self):
        with SweepRunner() as runner:
            records = runner.run(fast_requests())
        results = ResultSet.from_records(records)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IncompleteSweepWarning)
            try:
                compare(results, baseline={"seed": "1"})
            except IncompleteSweepWarning:  # pragma: no cover
                raise
            except Exception:
                pass


class TestKeyboardInterrupt:
    def test_interrupt_tears_down_the_pool(self):
        ticks = []

        def boom(record):
            ticks.append(record)
            if len(ticks) == 2:
                raise KeyboardInterrupt

        runner = SweepRunner(jobs=2)
        with pytest.raises(KeyboardInterrupt):
            runner.run(fast_requests(), on_record=boom)
        # the abort path killed and dropped the executor
        assert runner._executor is None
        runner.close()

    def test_cli_exits_130(self, monkeypatch, capsys):
        import repro.experiments.__main__ as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "execute_requests", interrupted)
        code = cli.main(["sweep", "stability", "--set", "slots=300",
                         "--set", "trials=5"])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err


def worker_pids(runner):
    return sorted(runner._executor._processes)


class TestPoolLifetime:
    """A finished batch leaves the process lane's main pool to the next."""

    @pytest.mark.parametrize("jobs, run_timeout", [(2, None), (1, 30.0)])
    def test_consecutive_runs_reuse_workers(self, jobs, run_timeout):
        with SweepRunner(jobs=jobs) as runner:
            runner.run(fast_requests((1, 2)), run_timeout=run_timeout)
            first = worker_pids(runner)
            records = runner.run(fast_requests((3, 4)), run_timeout=run_timeout)
            assert all(r.ok for r in records)
            assert first and worker_pids(runner) == first

    def test_close_reaps_workers(self):
        runner = SweepRunner(jobs=2)
        runner.run(fast_requests((1, 2)))
        pids = worker_pids(runner)
        runner.close()
        for pid in pids:
            # Reaped already: no zombie left for anyone to wait on.
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_inline_lane_starts_no_process_and_pickles_nothing(self, monkeypatch):
        import repro.experiments.runner as runner_module
        from repro.telemetry import TelemetryHub

        monkeypatch.setattr(runner_module, "pickle", None)
        hub = TelemetryHub()
        hub.subscribe(lambda event: None)
        with SweepRunner(jobs=1) as runner:
            records = runner.run(
                fast_requests(),
                policy=RETRY_2,
                faults=FaultPlan.parse("1=raise"),
                telemetry=hub,
            )
            assert runner._executor is None and runner._channel is None
        assert records[1].failure.attempts == 3


class TestCLI:
    def sweep_argv(self, *extra, seeds="1,2,3"):
        return [
            "sweep", "stability",
            "--set", "slots=300", "--set", "trials=5",
            "--set", f"seed={seeds}",
            *extra,
        ]

    def test_on_error_continue_exits_4_with_summary(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        out = str(tmp_path / "out")
        code = main(self.sweep_argv(
            "--fault-plan", "1=raise", "--on-error", "continue", "--out", out
        ))
        assert code == 4
        captured = capsys.readouterr()
        assert "1 run(s) failed" in captured.err
        assert "[exception] InjectedFault" in captured.err
        assert "FAILED [exception]" in captured.out
        with open(os.path.join(out, "failures.json")) as handle:
            assert len(json.load(handle)["failures"]) == 1

    def test_on_error_fail_is_default_and_propagates(self):
        from repro.experiments.__main__ import main

        with pytest.raises(InjectedFault):
            main(self.sweep_argv("--fault-plan", "1=raise"))

    def test_clean_sweep_with_continue_exits_0(self, capsys):
        from repro.experiments.__main__ import main

        assert main(self.sweep_argv("--on-error", "continue")) == 0
        assert "failed" not in capsys.readouterr().err

    def test_bogus_policy_is_a_cli_error(self, capsys):
        from repro.experiments.__main__ import main

        assert main(self.sweep_argv("--on-error", "explode")) == 2
        assert "error policy" in capsys.readouterr().err

    def test_bogus_fault_plan_is_a_cli_error(self, capsys):
        from repro.experiments.__main__ import main

        assert main(self.sweep_argv("--fault-plan", "nonsense")) == 2

    def test_nonpositive_timeout_is_a_cli_error(self, capsys):
        from repro.experiments.__main__ import main

        assert main(self.sweep_argv("--run-timeout", "0")) == 2
        assert "--run-timeout" in capsys.readouterr().err

    def test_store_resume_after_failures(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        store = "sqlite:" + str(tmp_path / "store.sqlite")
        code = main(self.sweep_argv(
            "--fault-plan", "1=raise", "--on-error", "continue",
            "--store", store,
        ))
        assert code == 4
        capsys.readouterr()
        # resume: the 2 survivors are cache hits, only the failure re-runs
        code = main(self.sweep_argv("--store", store, "--resume"))
        assert code == 0
        assert "2 cache hit(s), 1 executed" in capsys.readouterr().err

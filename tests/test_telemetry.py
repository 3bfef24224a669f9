"""Tests for the live telemetry plane: events, hub, gate, transport,
probe points, consumers, and the sweep runner's stream guarantees."""

import json
import os
import queue

import pytest

from repro.experiments.faults import FaultAction, FaultPlan
from repro.experiments.runner import ErrorPolicy, SweepRunner, request_for
from repro.results.store import SqliteStore
from repro.sim.engine import Engine
from repro.telemetry import (
    DROPPABLE_KINDS,
    EVENT_TYPES,
    MetricSample,
    ProbeSession,
    RunEventGate,
    RunFailed,
    RunFinished,
    RunProgress,
    RunStarted,
    TERMINAL_KINDS,
    TelemetryHub,
    TelemetryRecorder,
    WorkerPublisher,
    activate_probe,
    current_probe,
    drain_channel,
    event_from_json_dict,
    event_to_json_dict,
    probe_scope,
)

#: A fast, deterministic scenario for runner-level stream tests.
FAST = {"slots": 300, "trials": 5}

#: Zero-backoff retry policy so retry tests do not sleep.
RETRY_2 = ErrorPolicy("continue", retries=2, backoff_base_s=0.0, backoff_cap_s=0.0)

#: A small mesh on the slotted tier: rich mid-run samples, ~100 ms wall.
MESH_FAST = {
    "nodes": 9,
    "flows": 2,
    "duration_s": 4.0,
    "warmup_s": 1.0,
    "fidelity": "slotted",
}


def fast_requests(seeds=(1, 2, 3)):
    return [request_for("stability", dict(FAST, seed=seed)) for seed in seeds]


def mesh_requests(seeds=(1, 2)):
    return [request_for("meshgen", dict(MESH_FAST, seed=seed)) for seed in seeds]


def collect_hub(interval_s=1.0):
    """A hub with one list-appending listener; returns (hub, events)."""
    hub = TelemetryHub(sample_interval_s=interval_s)
    events = []
    hub.subscribe(events.append)
    return hub, events


def stream_for(events, run_id):
    return [e for e in events if e.run_id == run_id]


def assert_grammar(events, run_id, terminal=RunFinished):
    """One run's stream is RunStarted (P|M)* terminal, exactly once."""
    stream = stream_for(events, run_id)
    assert stream, f"no events for {run_id}"
    assert stream[0].kind == RunStarted.kind
    assert stream[-1].kind == terminal.kind
    kinds = [e.kind for e in stream]
    assert kinds.count(RunStarted.kind) == 1
    assert sum(kinds.count(k) for k in TERMINAL_KINDS) == 1
    for middle in stream[1:-1]:
        assert middle.kind in DROPPABLE_KINDS
    return stream


class TestEvents:
    @pytest.mark.parametrize(
        "event",
        [
            RunStarted(run_id="r", spec_id="meshgen", attempt=2),
            RunProgress(run_id="r", time_s=2.0, events=17, frac=0.5),
            MetricSample(
                run_id="r", time_s=2.0, metric="goodput_kbps", values={"0": 12.5}
            ),
            RunFinished(run_id="r", cached=True),
            RunFailed(
                run_id="r", failure_kind="timeout", error="RunTimeout", message="slow"
            ),
        ],
    )
    def test_json_round_trip(self, event):
        doc = event_to_json_dict(event)
        assert doc["kind"] == event.kind
        json.dumps(doc)  # serialisable
        assert event_from_json_dict(doc) == event

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry event kind"):
            event_from_json_dict({"kind": "Nope", "run_id": "r"})

    def test_kind_partitions(self):
        assert TERMINAL_KINDS == {RunFinished.kind, RunFailed.kind}
        assert DROPPABLE_KINDS == {RunProgress.kind, MetricSample.kind}
        assert set(EVENT_TYPES) == TERMINAL_KINDS | DROPPABLE_KINDS | {
            RunStarted.kind
        }


class TestHub:
    def test_attached_tracks_listeners(self):
        hub = TelemetryHub()
        assert not hub.attached
        listener = hub.subscribe(lambda e: None)
        assert hub.attached
        hub.unsubscribe(listener)
        assert not hub.attached
        hub.unsubscribe(listener)  # unknown listener: ignored

    def test_emit_fans_out_in_subscription_order(self):
        hub = TelemetryHub()
        seen = []
        hub.subscribe(lambda e: seen.append(("a", e)))
        hub.subscribe(lambda e: seen.append(("b", e)))
        event = RunStarted(run_id="r")
        hub.emit(event)
        assert seen == [("a", event), ("b", event)]

    def test_listener_errors_are_isolated(self):
        hub = TelemetryHub()

        def broken(event):
            raise RuntimeError("listener bug")

        hub.subscribe(broken)
        seen = []
        hub.subscribe(seen.append)
        hub.emit(RunStarted(run_id="r"))  # must not raise
        assert len(seen) == 1

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            TelemetryHub(sample_interval_s=0)
        with pytest.raises(ValueError):
            TelemetryHub(sample_interval_s=-1.0)


class TestRunEventGate:
    def test_enforces_grammar(self):
        sink = []
        gate = RunEventGate(sink.append)
        assert gate.emit(RunStarted(run_id="r"))
        assert gate.emit(RunProgress(run_id="r", time_s=1.0, events=5, frac=0.5))
        assert gate.emit(RunFinished(run_id="r"))
        assert_grammar(sink, "r")

    def test_synthesises_missing_start(self):
        sink = []
        gate = RunEventGate(sink.append)
        gate.emit(RunProgress(run_id="r", time_s=1.0, events=5, frac=0.5))
        assert [e.kind for e in sink] == [RunStarted.kind, RunProgress.kind]

    def test_duplicate_start_collapses(self):
        sink = []
        gate = RunEventGate(sink.append)
        assert gate.emit(RunStarted(run_id="r"))
        assert not gate.emit(RunStarted(run_id="r"))
        assert len(sink) == 1

    def test_post_terminal_events_dropped(self):
        sink = []
        gate = RunEventGate(sink.append)
        gate.emit(RunStarted(run_id="r"))
        gate.emit(RunFailed(run_id="r"))
        assert not gate.emit(RunProgress(run_id="r", time_s=9.0, events=1, frac=1.0))
        assert not gate.emit(RunFinished(run_id="r"))
        assert_grammar(sink, "r", terminal=RunFailed)

    def test_runs_are_independent(self):
        sink = []
        gate = RunEventGate(sink.append)
        gate.emit(RunStarted(run_id="a"))
        gate.emit(RunFinished(run_id="a"))
        assert gate.emit(RunProgress(run_id="b", time_s=0.0, events=0, frac=0.0))
        assert_grammar(sink, "a")


class TestWorkerPublisher:
    def test_droppables_batch_until_batch_size(self):
        channel = queue.Queue()
        publisher = WorkerPublisher(channel, batch_size=3)
        for i in range(2):
            publisher.emit(RunProgress(run_id="r", time_s=i, events=i, frac=0.1))
        assert channel.empty()  # still buffering
        publisher.emit(RunProgress(run_id="r", time_s=2.0, events=2, frac=0.2))
        assert len(channel.get_nowait()) == 3

    def test_lifecycle_events_flush_immediately(self):
        channel = queue.Queue()
        publisher = WorkerPublisher(channel, batch_size=100)
        publisher.emit(RunProgress(run_id="r", time_s=0.0, events=0, frac=0.0))
        publisher.emit(RunStarted(run_id="r"))
        batch = channel.get_nowait()
        assert [e.kind for e in batch] == [RunProgress.kind, RunStarted.kind]

    def test_full_channel_never_blocks_and_drops_oldest_droppable(self):
        channel = queue.Queue(maxsize=1)
        channel.put_nowait(["occupied"])  # consumer is stuck
        publisher = WorkerPublisher(channel, batch_size=1, max_buffer=3)
        publisher.emit(RunStarted(run_id="r"))
        for i in range(5):
            publisher.emit(RunProgress(run_id="r", time_s=i, events=i, frac=0.1))
        # Bounded buffer: oldest droppables evicted, lifecycle retained.
        assert publisher.dropped == 3
        residual = publisher.take_residual()
        assert residual[0].kind == RunStarted.kind
        assert [e.time_s for e in residual[1:]] == [3, 4]

    def test_take_residual_clears_buffer(self):
        channel = queue.Queue(maxsize=1)
        channel.put_nowait(["occupied"])
        publisher = WorkerPublisher(channel, batch_size=10)
        publisher.emit(RunProgress(run_id="r", time_s=0.0, events=0, frac=0.0))
        assert len(publisher.take_residual()) == 1
        assert publisher.take_residual() == ()

    def test_drain_channel_delivers_in_order(self):
        channel = queue.Queue()
        channel.put_nowait([RunStarted(run_id="r")])
        channel.put_nowait(
            [RunProgress(run_id="r", time_s=1.0, events=1, frac=0.5)]
        )
        seen = []
        assert drain_channel(channel, seen.append) == 2
        assert [e.kind for e in seen] == [RunStarted.kind, RunProgress.kind]
        assert drain_channel(channel, seen.append) == 0  # empty: no-op


class TestRecorder:
    def test_writes_per_run_jsonl_and_closes_on_terminal(self, tmp_path):
        root = str(tmp_path / "telemetry")
        with TelemetryRecorder(root) as recorder:
            recorder(RunStarted(run_id="a", spec_id="meshgen"))
            recorder(RunProgress(run_id="a", time_s=1.0, events=3, frac=0.25))
            recorder(RunFinished(run_id="a"))
            assert not recorder._handles  # terminal event closed the file
        lines = (tmp_path / "telemetry" / "a.jsonl").read_text().splitlines()
        events = [event_from_json_dict(json.loads(line)) for line in lines]
        assert [e.kind for e in events] == [
            RunStarted.kind,
            RunProgress.kind,
            RunFinished.kind,
        ]
        assert events[0].spec_id == "meshgen"

    def test_run_ids_with_separators_stay_in_root(self, tmp_path):
        root = str(tmp_path / "telemetry")
        with TelemetryRecorder(root) as recorder:
            recorder(RunFinished(run_id="exp/seed=1"))
        assert os.listdir(root) == ["exp_seed=1.jsonl"]


class TestProbe:
    def test_detached_by_default(self):
        assert current_probe() is None

    def test_scope_installs_and_restores(self):
        session = ProbeSession(emit=lambda e: None, run_id="r")
        with probe_scope(session) as active:
            assert active is session
            assert current_probe() is session
        assert current_probe() is None

    def test_activate_returns_previous(self):
        outer = ProbeSession(emit=lambda e: None, run_id="outer")
        inner = ProbeSession(emit=lambda e: None, run_id="inner")
        assert activate_probe(outer) is None
        assert activate_probe(inner) is outer
        assert activate_probe(None) is inner

    def test_progress_clamps_frac(self):
        seen = []
        session = ProbeSession(emit=seen.append, run_id="r")
        session.progress(1.0, 5, 1.7)
        session.progress(2.0, 6, -0.2)
        assert [e.frac for e in seen] == [1.0, 0.0]

    def test_metric_copies_values(self):
        seen = []
        session = ProbeSession(emit=seen.append, run_id="r")
        values = {"0": 1.0}
        session.metric(1.0, "goodput_kbps", values)
        values["0"] = 99.0
        assert seen[0].values == {"0": 1.0}

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            ProbeSession(emit=lambda e: None, run_id="r", sample_interval_s=0)


class TestRunObserved:
    def _loaded_engine(self):
        engine = Engine()
        order = []
        for delay in (5, 10, 10, 17, 30):
            engine.schedule(delay, lambda d=delay: order.append((engine.now, d)))
        # An event that reschedules itself across chunk boundaries.
        def tick():
            order.append((engine.now, "tick"))
            if engine.now < 25:
                engine.schedule(7, tick)
        engine.schedule(4, tick)
        return engine, order

    def test_bit_identical_to_single_run(self):
        plain_engine, plain = self._loaded_engine()
        plain_engine.run(until=30)
        observed_engine, observed = self._loaded_engine()
        boundaries = []
        observed_engine.run_observed(
            30, 10, lambda now, processed: boundaries.append((now, processed))
        )
        assert observed == plain
        assert observed_engine.now == plain_engine.now
        assert observed_engine.processed_events == plain_engine.processed_events

    def test_observer_fires_per_chunk_with_final_boundary(self):
        engine = Engine()
        engine.schedule(3, lambda: None)
        boundaries = []
        engine.run_observed(10, 4, lambda now, processed: boundaries.append(now))
        assert boundaries == [4, 8, 10]


class TestTierProbes:
    def test_slotted_tier_emits_deterministic_stream(self):
        from repro.experiments.specs import get_spec

        spec = get_spec("meshgen")
        hub, events = collect_hub(interval_s=2.0)
        session = ProbeSession(emit=hub.emit, run_id="mesh", sample_interval_s=2.0)
        with probe_scope(session):
            spec.run(**dict(MESH_FAST, seed=1))
        progress = [e for e in events if e.kind == RunProgress.kind]
        metrics = [e for e in events if e.kind == MetricSample.kind]
        # Samples land on the first slot at/after each interval boundary
        # (slot-quantised sim time); the final boundary at 4.0 is past
        # the last slot, so a 4 s run at 2 s interval samples twice.
        assert [p.time_s for p in progress] == pytest.approx([0.0, 2.0], abs=0.01)
        assert [p.frac for p in progress] == pytest.approx([0.0, 0.5], abs=0.01)
        # Running goodput is sampled at every non-zero boundary, one
        # value per flow.
        assert [m.time_s for m in metrics] == pytest.approx([2.0], abs=0.01)
        assert all(m.metric == "goodput_kbps" for m in metrics)
        assert all(len(m.values) == MESH_FAST["flows"] for m in metrics)
        # The stream is a pure function of the run: emitting again from
        # the same request reproduces it exactly.
        hub2, events2 = collect_hub(interval_s=2.0)
        session2 = ProbeSession(emit=hub2.emit, run_id="mesh", sample_interval_s=2.0)
        with probe_scope(session2):
            spec.run(**dict(MESH_FAST, seed=1))
        assert events2 == events

    def test_event_tier_emits_progress_and_goodput(self):
        from repro.experiments.specs import get_spec

        spec = get_spec("meshgen")
        hub, events = collect_hub(interval_s=1.0)
        session = ProbeSession(emit=hub.emit, run_id="mesh", sample_interval_s=1.0)
        kwargs = {"nodes": 9, "flows": 2, "duration_s": 3.0, "warmup_s": 0.5}
        with probe_scope(session):
            spec.run(**dict(kwargs, seed=1))
        progress = [e for e in events if e.kind == RunProgress.kind]
        metrics = [e for e in events if e.kind == MetricSample.kind]
        assert [p.time_s for p in progress] == [1.0, 2.0, 3.0]
        assert progress[-1].frac == 1.0
        assert [e.events for e in progress] == sorted(e.events for e in progress)
        assert metrics and all(m.metric == "goodput_kbps" for m in metrics)

    @pytest.mark.parametrize("fidelity", ["event", "slotted"])
    def test_observed_run_matches_detached_result(self, fidelity):
        from repro.experiments.specs import get_spec

        spec = get_spec("meshgen")
        kwargs = {
            "nodes": 9,
            "flows": 2,
            "duration_s": 3.0,
            "warmup_s": 0.5,
            "seed": 2,
            "fidelity": fidelity,
        }
        detached = spec.run(**kwargs).to_dict()
        hub, events = collect_hub()
        session = ProbeSession(emit=hub.emit, run_id="mesh")
        with probe_scope(session):
            attached = spec.run(**kwargs).to_dict()
        assert events  # the probe really was live
        assert json.dumps(attached, sort_keys=True) == json.dumps(
            detached, sort_keys=True
        )


class TestRunnerStreams:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_run_streams_grammar(self, jobs):
        requests = fast_requests()
        hub, events = collect_hub()
        with SweepRunner(jobs=jobs) as runner:
            records = runner.run(requests, telemetry=hub)
        assert len(records) == len(requests)
        for request in requests:
            stream = assert_grammar(events, request.run_id)
            assert stream[0].spec_id in ("stability", "")

    def test_detached_hub_is_ignored(self):
        hub = TelemetryHub()  # no listeners: attached is False
        with SweepRunner() as runner:
            records = runner.run(fast_requests(seeds=(1,)), telemetry=hub)
        assert len(records) == 1

    def test_pooled_mesh_streams_include_samples(self):
        requests = mesh_requests()
        hub, events = collect_hub()
        with SweepRunner(jobs=2) as runner:
            runner.run(requests, telemetry=hub)
        for request in requests:
            stream = assert_grammar(events, request.run_id)
            kinds = {e.kind for e in stream}
            assert RunProgress.kind in kinds
            assert MetricSample.kind in kinds

    def test_telemetry_does_not_change_records(self):
        requests = mesh_requests(seeds=(3,))
        with SweepRunner() as runner:
            detached = runner.run(requests)
        hub, events = collect_hub()
        with SweepRunner() as runner:
            attached = runner.run(requests, telemetry=hub)
        assert events
        assert json.dumps(attached[0].result.to_dict(), sort_keys=True) == json.dumps(
            detached[0].result.to_dict(), sort_keys=True
        )

    def test_cached_runs_stream_immediate_finish(self, tmp_path):
        requests = fast_requests(seeds=(1, 2))
        with SqliteStore(str(tmp_path / "runs.sqlite")) as store:
            with SweepRunner() as runner:
                runner.run(requests, store=store)
            hub, events = collect_hub()
            with SweepRunner() as runner:
                records = runner.run(requests, store=store, telemetry=hub)
        assert all(record.cached for record in records)
        for request in requests:
            stream = assert_grammar(events, request.run_id)
            assert [e.kind for e in stream] == [RunStarted.kind, RunFinished.kind]
            assert stream[-1].cached is True
        # Cached streams come back in request order.
        assert [e.run_id for e in events if e.kind == RunStarted.kind] == [
            r.run_id for r in requests
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_run_streams_run_failed(self, jobs):
        requests = fast_requests()
        plan = FaultPlan.parse("1=raise")
        hub, events = collect_hub()
        with SweepRunner(jobs=jobs) as runner:
            records = runner.run(
                requests, policy="continue", faults=plan, telemetry=hub
            )
        assert records[1].failure is not None
        failed = assert_grammar(events, requests[1].run_id, terminal=RunFailed)
        assert failed[-1].failure_kind == "exception"
        assert failed[-1].error == "InjectedFault"
        for request in (requests[0], requests[2]):
            assert_grammar(events, request.run_id)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retried_run_terminates_exactly_once(self, jobs):
        requests = fast_requests()
        plan = FaultPlan.parse("1=raise/1")  # first attempt only
        hub, events = collect_hub()
        with SweepRunner(jobs=jobs) as runner:
            records = runner.run(
                requests, policy=RETRY_2, faults=plan, telemetry=hub
            )
        assert all(record.failure is None for record in records)
        for request in requests:
            assert_grammar(events, request.run_id)

    def test_fail_fast_emits_run_failed_before_raising(self):
        requests = fast_requests()
        plan = FaultPlan.parse("0=raise")
        hub, events = collect_hub()
        with SweepRunner() as runner:
            with pytest.raises(Exception):
                runner.run(requests, policy="fail", faults=plan, telemetry=hub)
        stream = stream_for(events, requests[0].run_id)
        assert stream[-1].kind == RunFailed.kind

    def test_inline_interrupt_emits_run_failed_before_raising(self, monkeypatch):
        # Even under continue, an interrupt is no run failure to record:
        # it ends the run's stream and aborts the batch.
        def interrupt(self, run_id, attempt):
            raise KeyboardInterrupt

        monkeypatch.setattr(FaultAction, "trigger", interrupt)
        requests = fast_requests()
        hub, events = collect_hub()
        seen = []
        with SweepRunner() as runner:
            with pytest.raises(KeyboardInterrupt):
                runner.run(
                    requests,
                    on_record=seen.append,
                    policy="continue",
                    faults=FaultPlan.parse("1=raise"),
                    telemetry=hub,
                )
        assert [r.request.run_id for r in seen] == [requests[0].run_id]
        assert_grammar(events, requests[0].run_id)
        failed = assert_grammar(events, requests[1].run_id, terminal=RunFailed)
        assert failed[-1].error == "KeyboardInterrupt"
        assert not stream_for(events, requests[2].run_id)


class TestOnRecordContract:
    """Satellite: on_record ordering and exactly-once guarantees hold
    with telemetry attached, under retries and cache-hit replay."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_record_order_and_exactly_once_under_retry(self, jobs):
        requests = fast_requests()
        plan = FaultPlan.parse("1=raise/1")
        hub, events = collect_hub()
        seen = []
        with SweepRunner(jobs=jobs) as runner:
            runner.run(
                requests,
                on_record=lambda record: seen.append(record.request.run_id),
                policy=RETRY_2,
                faults=plan,
                telemetry=hub,
            )
        assert seen == [r.run_id for r in requests]

    def test_on_record_exactly_once_on_cache_replay(self, tmp_path):
        requests = fast_requests(seeds=(1, 2))
        with SqliteStore(str(tmp_path / "runs.sqlite")) as store:
            with SweepRunner() as runner:
                runner.run(requests, store=store)
            hub, events = collect_hub()
            seen = []
            with SweepRunner() as runner:
                runner.run(
                    requests,
                    on_record=lambda record: seen.append(record.request.run_id),
                    store=store,
                    telemetry=hub,
                )
        assert seen == [r.run_id for r in requests]


class TestBenchCase:
    def test_overhead_case_registered(self):
        from repro.bench import FUNCTION_CASES, build_suite

        assert "telemetry.overhead" in FUNCTION_CASES
        names = [case.name for case in build_suite()]
        assert "telemetry.overhead" in names

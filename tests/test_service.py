"""Tests for the long-running sweep service (repro.service).

Covers the submission document parser (Study-builder shapes, typed
validation errors), the WSGI app battery (routing, status codes,
cancel), end-to-end execution through the queue against a shared sqlite
store — including the two acceptance properties: an identical
resubmission executes zero runs, and two *concurrent* overlapping
submissions dedupe to one execution per content key — chaos-plan jobs
that fail without wedging the queue, and the byte-identity contract:
the HTTP ``compare.md`` body equals the CLI ``compare`` stdout on the
same store, byte for byte.
"""

import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.experiments.specs import (
    ParameterValueError,
    UnknownExperimentError,
    UnknownParameterError,
    catalogue,
)
from repro.results import RUN_FAILURE_SCHEMA, RUN_RESULT_SCHEMA, Study
from repro.service import JOB_SCHEMA, STATUS_SCHEMA, JobError, ServiceApp, SweepService, build_study

# A scenario cheap enough to run many times in tests (test_store.py's).
FAST = {"slots": 1500, "trials": 15}

# A meshgen point small enough for the compare byte-identity test.
FAST_MESHGEN = {
    "topology": "mesh",
    "nodes": 9,
    "flows": 2,
    "duration_s": 3.0,
    "warmup_s": 1.0,
    "fidelity": "slotted",
}


def stability_doc(seeds=(3, 4), **extra):
    fixed = dict(FAST)
    fixed.update(extra)
    return {
        "experiment": "stability",
        "set": fixed,
        "grid": {"seed": list(seeds)},
    }


def wsgi_call(app, method, path, body=None, query=""):
    """Drive the WSGI app directly; returns (status code, parsed body)."""
    raw = b"" if body is None else json.dumps(body).encode()
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    payload = b"".join(app(environ, start_response))
    text = payload.decode()
    if captured["headers"]["Content-Type"].startswith("application/json"):
        return captured["status"], json.loads(text)
    return captured["status"], text


def poll_done(app, job_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, doc = wsgi_call(app, "GET", f"/jobs/{job_id}")
        assert status == 200
        if doc["state"] in ("done", "failed", "cancelled"):
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestBuildStudy:
    def test_mirrors_the_builder(self):
        doc = {
            "experiment": "stability",
            "grid": {"seed": [3, 4], "trials": 15},
            "set": {"slots": 1500},
        }
        built = build_study(doc).requests()
        fluent = (
            Study("stability").grid(seed=[3, 4], trials=15).set(slots=1500).requests()
        )
        assert [r.run_id for r in built] == [r.run_id for r in fluent]

    def test_default_axes_and_opt_out(self):
        doc = {"experiment": "meshgen", "set": FAST_MESHGEN}
        expanded = build_study(doc).requests()
        assert len(expanded) == 1  # topology pinned -> no default axis left
        doc = {
            "experiment": "meshgen",
            "set": {k: v for k, v in FAST_MESHGEN.items() if k != "topology"},
        }
        assert len(build_study(doc).requests()) == 3  # mesh, grid, tree
        doc["no_default_axes"] = True
        assert len(build_study(doc).requests()) == 1

    def test_seeds_count_matches_study_builder(self):
        doc = {"experiment": "stability", "set": FAST, "seeds": 3, "base_seed": 7}
        built = build_study(doc).requests()
        fluent = Study("stability").set(**FAST).seeds(3, base=7).requests()
        assert [r.run_id for r in built] == [r.run_id for r in fluent]

    def test_replicates(self):
        doc = {"experiment": "stability", "set": FAST, "replicates": 2, "base_seed": 5}
        assert len(build_study(doc).requests()) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"experiment": 7},
            {"experiment": "stability", "grid": []},
            {"experiment": "stability", "set": "slots=1"},
            {"experiment": "stability", "seeds": 2, "replicates": 2},
            {"experiment": "stability", "seeds": True},
            {"experiment": "stability", "replicates": "two"},
            {"experiment": "stability", "base_seed": "seven"},
        ],
    )
    def test_invalid_documents(self, doc):
        with pytest.raises(JobError):
            build_study(doc)

    def test_typed_catalogue_errors_propagate(self):
        with pytest.raises(UnknownExperimentError):
            build_study({"experiment": "nope"})
        with pytest.raises(UnknownParameterError):
            build_study({"experiment": "stability", "grid": {"bogus": [1]}})
        with pytest.raises(ParameterValueError):
            build_study(
                {"experiment": "stability", "grid": {"slots": ["many"]}}
            ).requests()


class TestAppRouting:
    """App-level battery over an idle service (scheduler never started)."""

    @pytest.fixture()
    def app(self, tmp_path):
        service = SweepService(f"sqlite:{tmp_path / 'runs.sqlite'}")
        yield ServiceApp(service)
        service.shutdown()

    def test_index_and_catalogue(self, app):
        status, doc = wsgi_call(app, "GET", "/")
        assert status == 200 and "endpoints" in doc
        status, doc = wsgi_call(app, "GET", "/scenarios")
        assert status == 200
        assert doc == json.loads(json.dumps(catalogue()))  # same document

    def test_status_document(self, app):
        status, doc = wsgi_call(app, "GET", "/status")
        assert status == 200
        assert doc["schema"] == STATUS_SCHEMA
        assert doc["queue_depth"] == 0 and doc["accepting"] is True
        # Uptime plus zero-filled per-state job counts (every state
        # always present, so dashboards need no key-existence checks).
        assert doc["uptime_s"] >= 0.0
        assert doc["jobs"] == {
            "queued": 0,
            "running": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
        }

    def test_unknown_routes_and_methods(self, app):
        assert wsgi_call(app, "GET", "/nope")[0] == 404
        assert wsgi_call(app, "GET", "/jobs/job-9999")[0] == 404
        assert wsgi_call(app, "POST", "/scenarios")[0] == 405
        assert wsgi_call(app, "DELETE", "/studies")[0] == 405

    def test_submission_errors_are_400(self, app):
        environ_bad = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/studies",
            "CONTENT_LENGTH": "9",
            "wsgi.input": io.BytesIO(b"not json!"),
        }
        captured = {}
        app(environ_bad, lambda s, h: captured.update(status=s))
        assert captured["status"].startswith("400")
        assert wsgi_call(app, "POST", "/studies", {"experiment": "nope"})[0] == 400
        status, doc = wsgi_call(
            app,
            "POST",
            "/studies",
            {"experiment": "stability", "grid": {"bogus": [1]}},
        )
        assert status == 400 and "bogus" in doc["error"]
        bad_value = {"experiment": "stability", "grid": {"slots": ["many"]}}
        assert wsgi_call(app, "POST", "/studies", bad_value)[0] == 400

    def test_non_integral_seed_is_400(self, app):
        submission = {"experiment": "meshgen", "set": {"seed": 2.5}}
        status, doc = wsgi_call(app, "POST", "/studies", submission)
        assert status == 400 and "seed" in doc["error"]
        assert wsgi_call(app, "GET", "/status")[1]["queue_depth"] == 0

    def test_non_string_algorithm_is_400(self, app):
        submission = {"experiment": "meshgen", "set": {"algorithm": 1}}
        status, doc = wsgi_call(app, "POST", "/studies", submission)
        assert status == 400 and "algorithm" in doc["error"]
        assert wsgi_call(app, "GET", "/status")[1]["queue_depth"] == 0

    def test_submit_queue_cancel(self, app):
        status, doc = wsgi_call(app, "POST", "/studies", stability_doc())
        assert status == 202
        assert doc["schema"] == JOB_SCHEMA
        assert doc["state"] == "queued" and doc["total_runs"] == 2
        assert all(run["state"] == "pending" for run in doc["runs"])
        job_id = doc["id"]
        status, listing = wsgi_call(app, "GET", "/jobs")
        assert status == 200 and [j["id"] for j in listing["jobs"]] == [job_id]
        assert "runs" not in listing["jobs"][0]  # summaries only
        # Results of an unfinished job are a conflict, not a 404.
        assert wsgi_call(app, "GET", f"/jobs/{job_id}/results")[0] == 409
        status, doc = wsgi_call(app, "DELETE", f"/jobs/{job_id}")
        assert status == 200 and doc["state"] == "cancelled"
        assert doc["exit_code"] == 130
        # A second cancel (no longer queued) conflicts.
        assert wsgi_call(app, "DELETE", f"/jobs/{job_id}")[0] == 409
        status, doc = wsgi_call(app, "GET", "/status")
        assert doc["queue_depth"] == 0
        assert doc["jobs"] == {
            "queued": 0,
            "running": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 1,
        }

    def test_oversized_submission(self, app):
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/studies",
            "CONTENT_LENGTH": str(2 << 20),
            "wsgi.input": io.BytesIO(b"{}"),
        }
        captured = {}
        app(environ, lambda s, h: captured.update(status=s))
        assert captured["status"].startswith("413")


class TestServiceExecution:
    """End-to-end through the queue against one shared sqlite store."""

    @pytest.fixture(scope="class")
    def live(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("service") / "runs.sqlite"
        service = SweepService(f"sqlite:{store}", jobs=2).start()
        yield ServiceApp(service)
        service.shutdown()

    def test_submit_poll_fetch(self, live):
        status, doc = wsgi_call(live, "POST", "/studies", stability_doc())
        assert status == 202
        doc = poll_done(live, doc["id"])
        assert doc["state"] == "done" and doc["exit_code"] == 0
        assert doc["executed"] == 2 and doc["cached"] == 0
        assert {run["state"] for run in doc["runs"]} == {"done"}
        status, frame = wsgi_call(live, "GET", f"/jobs/{doc['id']}/results")
        assert status == 200
        assert frame["columns"][0] == "run_id" and len(frame["rows"]) == 2
        run_id = doc["runs"][0]["run_id"]
        status, run_doc = wsgi_call(live, "GET", f"/jobs/{doc['id']}/runs/{run_id}")
        assert status == 200
        assert run_doc["schema"] == RUN_RESULT_SCHEMA
        assert run_doc["run_id"] == run_id
        assert run_doc["result"]["experiment"] == "stability"
        assert wsgi_call(live, "GET", f"/jobs/{doc['id']}/runs/zzz")[0] == 404

    def test_identical_resubmission_is_all_cache_hits(self, live):
        status, doc = wsgi_call(live, "POST", "/studies", stability_doc())
        assert status == 202
        doc = poll_done(live, doc["id"])
        assert doc["state"] == "done"
        assert doc["cached"] == 2 and doc["executed"] == 0
        assert {run["state"] for run in doc["runs"]} == {"cached"}

    def test_concurrent_overlapping_submissions_dedupe(self, live):
        # Fresh content keys (slots=1600); the two grids overlap on
        # seeds 4 and 5. Whichever job the scheduler runs first executes
        # its runs; the other gets the overlap as pure cache hits — one
        # execution per content key across both clients.
        docs = [
            stability_doc(seeds=(3, 4, 5), slots=1600),
            stability_doc(seeds=(4, 5, 6), slots=1600),
        ]
        ids = [None, None]

        def submit(index):
            status, doc = wsgi_call(live, "POST", "/studies", docs[index])
            assert status == 202
            ids[index] = doc["id"]

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done = [poll_done(live, job_id) for job_id in ids]
        assert all(doc["state"] == "done" for doc in done)
        assert sum(doc["executed"] for doc in done) == 4  # seeds 3,4,5,6
        assert sum(doc["cached"] for doc in done) == 2  # the overlap
        assert all(doc["completed"] == 3 for doc in done)

    def test_chaos_job_fails_without_wedging_the_queue(self, live):
        # One raising run under continue: the job completes with a typed
        # failure and the sweep CLI's continue-with-failures exit code.
        chaos = stability_doc(seeds=(3, 4), slots=1700)
        chaos.update(on_error="continue", fault_plan="0=raise")
        status, doc = wsgi_call(live, "POST", "/studies", chaos)
        assert status == 202 and doc["fault_plan"] == "0=raise"
        doc = poll_done(live, doc["id"])
        assert doc["state"] == "done" and doc["exit_code"] == 4
        assert doc["failed_runs"] == 1 and len(doc["failures"]) == 1
        failure = doc["failures"][0]
        assert failure["schema"] == RUN_FAILURE_SCHEMA
        assert failure["kind"] == "exception"
        # Under the default fail policy the same plan fails the job...
        chaos = stability_doc(seeds=(3, 4), slots=1800)
        chaos["fault_plan"] = "0=raise"
        status, doc = wsgi_call(live, "POST", "/studies", chaos)
        doc = poll_done(live, doc["id"])
        assert doc["state"] == "failed" and doc["exit_code"] == 1
        assert "InjectedFault" in doc["error"]
        # ... and the queue keeps serving the next job regardless.
        status, doc = wsgi_call(live, "POST", "/studies", stability_doc())
        doc = poll_done(live, doc["id"])
        assert doc["state"] == "done"
        status, status_doc = wsgi_call(live, "GET", "/status")
        assert status_doc["jobs"]["failed"] == 1
        assert status_doc["failure_count"] == 1


def open_stream(app, job_id, last_event_id=None, via_query=False):
    """GET /jobs/<id>/events; returns (captured, body iterator)."""
    environ = {
        "REQUEST_METHOD": "GET",
        "PATH_INFO": f"/jobs/{job_id}/events",
        "QUERY_STRING": "",
        "CONTENT_LENGTH": "0",
        "wsgi.input": io.BytesIO(b""),
    }
    if last_event_id is not None:
        if via_query:
            environ["QUERY_STRING"] = f"last_event_id={last_event_id}"
        else:
            environ["HTTP_LAST_EVENT_ID"] = str(last_event_id)
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    return captured, app(environ, start_response)


def parse_frames(raw: bytes):
    """SSE bytes -> [(id, event kind, data dict)]; keepalives skipped."""
    frames = []
    for block in raw.decode().split("\n\n"):
        if not block.strip() or block.startswith(":"):
            continue
        fields = {}
        for line in block.split("\n"):
            key, _, value = line.partition(": ")
            fields[key] = value
        frames.append((int(fields["id"]), fields["event"], json.loads(fields["data"])))
    return frames


def read_stream(app, job_id, **kwargs):
    captured, body = open_stream(app, job_id, **kwargs)
    assert captured["status"] == 200
    assert captured["headers"]["Content-Type"].startswith("text/event-stream")
    assert "Content-Length" not in captured["headers"]  # close-delimited
    return parse_frames(b"".join(body))


def assert_stream_grammar(frames, cached=False):
    """Per-run SSE grammar: Started (Progress|Sample)* terminal, once."""
    by_run = {}
    for _, kind, data in frames:
        by_run.setdefault(data["run_id"], []).append((kind, data))
    assert by_run
    for run_id, stream in by_run.items():
        kinds = [kind for kind, _ in stream]
        assert kinds[0] == "RunStarted", run_id
        assert kinds[-1] in ("RunFinished", "RunFailed"), run_id
        assert kinds.count("RunStarted") == 1
        assert kinds.count("RunFinished") + kinds.count("RunFailed") == 1
        if cached:
            assert stream[-1][1]["cached"] is True
    return by_run


class TestEventStream:
    """The SSE endpoint: framing, per-run grammar, resume, disconnect."""

    @pytest.fixture(scope="class")
    def live(self, tmp_path_factory):
        store = tmp_path_factory.mktemp("events") / "runs.sqlite"
        service = SweepService(f"sqlite:{store}", jobs=2).start()
        app = ServiceApp(service)
        # Short keepalives so idle waits surface quickly in tests.
        app.sse_keepalive_s = 0.05
        yield app
        service.shutdown()

    def _submit(self, live, **extra):
        status, doc = wsgi_call(live, "POST", "/studies", stability_doc(**extra))
        assert status == 202
        return doc["id"]

    def test_live_stream_full_grammar_and_monotonic_ids(self, live):
        job_id = self._submit(live)
        # Attach while the job runs: the stream follows execution and
        # closes on its own once the job is terminal.
        frames = read_stream(live, job_id)
        ids = [frame_id for frame_id, _, _ in frames]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        by_run = assert_stream_grammar(frames)
        assert len(by_run) == 2
        assert poll_done(live, job_id)["state"] == "done"

    def test_cached_job_streams_immediate_finish(self, live):
        first = self._submit(live, slots=1600)
        poll_done(live, first)
        job_id = self._submit(live, slots=1600)  # all cache hits
        doc = poll_done(live, job_id)
        assert doc["cached"] == 2
        frames = read_stream(live, job_id)
        by_run = assert_stream_grammar(frames, cached=True)
        assert all(len(stream) == 2 for stream in by_run.values())

    @pytest.mark.parametrize("via_query", [False, True])
    def test_last_event_id_resumes_without_replay(self, live, via_query):
        job_id = self._submit(live, slots=1700)
        poll_done(live, job_id)
        frames = read_stream(live, job_id)
        assert len(frames) >= 4
        cut = frames[1][0]  # resume after the second event
        resumed = read_stream(
            live, job_id, last_event_id=cut, via_query=via_query
        )
        assert resumed == frames[2:]  # nothing seen replays
        # Resuming from the last id yields nothing and closes cleanly.
        assert read_stream(live, job_id, last_event_id=frames[-1][0]) == []

    def test_bad_last_event_id_replays_from_start(self, live):
        job_id = self._submit(live, slots=1700)  # cached by now
        poll_done(live, job_id)
        frames = read_stream(live, job_id)
        assert read_stream(live, job_id, last_event_id="bogus") == frames

    def test_client_disconnect_mid_run_leaves_job_unharmed(self, live):
        job_id = self._submit(live, slots=1800)
        captured, body = open_stream(live, job_id)
        # Read one chunk, then vanish (closing the generator is what
        # the WSGI server does when the client connection drops).
        first = next(iter(body))
        assert first  # a frame or a keepalive comment
        body.close()
        doc = poll_done(live, job_id)
        assert doc["state"] == "done"
        # The full log is still replayable after the disconnect.
        assert_stream_grammar(read_stream(live, job_id))

    def test_keepalives_flow_while_idle(self, live):
        # A queued/running job with nothing new to say emits comment
        # keepalives so dead connections surface as write errors. The
        # hang makes the job really idle: with the pool kept warm across
        # jobs, a plain run can finish before the first keepalive is due.
        study = dict(stability_doc(slots=1900), fault_plan="0=hang:0.3")
        status, doc = wsgi_call(live, "POST", "/studies", study)
        assert status == 202
        job_id = doc["id"]
        captured, body = open_stream(live, job_id)
        chunks = []
        for chunk in body:
            chunks.append(chunk)
            if chunk.startswith(b":"):
                break
            if len(chunks) > 200:  # the job finished too fast to idle
                break
        body.close()
        assert any(chunk.startswith(b":") for chunk in chunks) or len(chunks) > 200
        poll_done(live, job_id)

    def test_events_endpoint_rejects_non_get(self, live):
        job_id = self._submit(live, slots=2000)
        poll_done(live, job_id)
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": f"/jobs/{job_id}/events",
            "CONTENT_LENGTH": "0",
            "wsgi.input": io.BytesIO(b""),
        }
        captured = {}

        def start_response(status, headers):
            captured["status"] = int(status.split()[0])

        body = live(environ, start_response)
        b"".join(body)
        assert captured["status"] == 405


class TestCompareByteIdentity:
    """The acceptance contract: HTTP compare == CLI compare, byte for byte."""

    def test_http_compare_matches_cli(self, tmp_path):
        store = tmp_path / "runs.sqlite"
        service = SweepService(f"sqlite:{store}", jobs=2).start()
        app = ServiceApp(service)
        try:
            doc = {
                "experiment": "meshgen",
                "set": FAST_MESHGEN,
                "grid": {"algorithm": ["none", "ezflow"]},
            }
            status, job = wsgi_call(app, "POST", "/studies", doc)
            assert status == 202
            job = poll_done(app, job["id"], timeout=300.0)
            assert job["state"] == "done" and job["executed"] == 2
            status, markdown = wsgi_call(app, "GET", f"/jobs/{job['id']}/compare.md")
            assert status == 200
            status, table = wsgi_call(app, "GET", f"/jobs/{job['id']}/compare")
            assert status == 200
            assert table["markdown"] + "\n" == markdown
            assert table["incomplete"] is False
            assert table["columns"][0] == "metric"
        finally:
            service.shutdown()
        # The CLI rendering the same store must produce the same bytes.
        cli = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "compare", str(store)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert cli.returncode == 0, cli.stderr
        assert cli.stdout == markdown

    def test_compare_query_knobs_and_errors(self, tmp_path):
        service = SweepService(f"sqlite:{tmp_path / 'r.sqlite'}", jobs=1).start()
        app = ServiceApp(service)
        try:
            doc = {
                "experiment": "meshgen",
                "set": dict(FAST_MESHGEN, duration_s=2.0),
                "grid": {"algorithm": ["none", "ezflow"]},
            }
            status, job = wsgi_call(app, "POST", "/studies", doc)
            job = poll_done(app, job["id"], timeout=300.0)
            assert job["state"] == "done"
            path = f"/jobs/{job['id']}/compare"
            status, table = wsgi_call(
                app, "GET", path, query="metrics=aggregate_kbps&baseline=algorithm=none"
            )
            assert status == 200
            assert [row[0] for row in table["rows"]] == ["aggregate_kbps"]
            # Unknown metrics render as blank cells, like the CLI flag.
            status, table = wsgi_call(app, "GET", path, query="metrics=bogus_metric")
            assert status == 200 and table["rows"][0][0] == "bogus_metric"
            # A baseline nothing matches is a comparison error -> 400.
            status, doc = wsgi_call(app, "GET", path, query="baseline=algorithm=zzz")
            assert status == 400 and "baseline" in doc["error"]
            status, doc = wsgi_call(app, "GET", path, query="baseline=broken")
            assert status == 400
        finally:
            service.shutdown()


class TestServiceCli:
    def test_serve_and_drain_over_real_http(self, tmp_path):
        """python -m repro.service: submit over TCP, SIGINT drains, exit 0."""
        store = tmp_path / "runs.sqlite"
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.service",
                "--store",
                f"sqlite:{store}",
                "--port",
                "0",
                "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=repo,
        )
        try:
            banner = proc.stdout.readline()
            assert "repro sweep service on http://" in banner
            base = banner.split()[4].rstrip("/")
            doc = stability_doc()
            request = urllib.request.Request(
                f"{base}/studies",
                data=json.dumps(doc).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 202
                job = json.loads(response.read())
            deadline = time.time() + 120
            while time.time() < deadline:
                with urllib.request.urlopen(
                    f"{base}/jobs/{job['id']}", timeout=30
                ) as response:
                    state = json.loads(response.read())["state"]
                if state in ("done", "failed"):
                    break
                time.sleep(0.2)
            assert state == "done"
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert "drained" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

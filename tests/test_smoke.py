"""End-to-end smoke gates: whole sweeps through the CLI and the service.

Each test drives the program the way a user does — ``python -m
repro.experiments`` argument vectors, a live ``python -m repro.service``
process — and checks a property no unit test covers on its own: a chaos
sweep that survives and resumes to clean bytes, a killed sweep that
resumes byte-identically from its store, telemetry that follows the
stream grammar without touching the exports, and SSE over real HTTP.
Run them alone with ``pytest -m smoke``.
"""

import json
import os
import signal
import subprocess
import sys
import urllib.request

import pytest

import repro.experiments.__main__ as cli
from repro.experiments.faults import InjectedFault
from repro.results import open_store

pytestmark = pytest.mark.smoke

#: A 12-run meshgen grid: 3 default topologies x 2 algorithms x 2 seeds.
SWEEP = [
    "sweep", "meshgen",
    "--set", "nodes=9", "--set", "flows=2",
    "--set", "duration_s=3", "--set", "warmup_s=1",
    "--grid", "algorithm=none,ezflow", "--grid", "seed=7,11",
]

#: Two pooled slotted-tier runs with rich telemetry streams.
TELEMETRY_SWEEP = [
    "sweep", "meshgen",
    "--grid", "seed=1,2", "--grid", "topology=mesh", "--grid", "nodes=9",
    "--grid", "flows=2", "--grid", "duration_s=4", "--grid", "warmup_s=1",
    "--grid", "fidelity=slotted", "--jobs", "2",
]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tree_bytes(root):
    """Relative path -> bytes of every file under ``root`` but manifest.json."""
    found = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name == "manifest.json":
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def manifest_without_timing(root):
    with open(os.path.join(root, "manifest.json")) as handle:
        manifest = json.load(handle)
    assert manifest.pop("timing")["runs"], f"{root}: empty timing section"
    return manifest


def assert_same_export(one, two):
    """Byte-identical trees; manifests equal once wall-clock timing is gone."""
    assert tree_bytes(one) == tree_bytes(two)
    assert manifest_without_timing(one) == manifest_without_timing(two)


@pytest.mark.slow
def test_chaos_sweep_survives_resumes_and_matches_clean_bytes(
    tmp_path, capsys, monkeypatch
):
    # One raising run, one worker crash and one hang past --run-timeout
    # under --on-error continue at --jobs 2.
    clean, out = tmp_path / "clean", tmp_path / "chaos"
    store = f"sqlite:{tmp_path / 'chaos.sqlite'}"
    assert cli.main(SWEEP + ["--jobs", "1", "--out", str(clean)]) == 0
    code = cli.main(SWEEP + [
        "--fault-plan", "2=raise+5=crash+8=hang:60", "--run-timeout", "8",
        "--on-error", "continue", "--jobs", "2",
        "--store", store, "--out", str(out),
    ])
    assert code == 4
    with open(out / "failures.json") as handle:
        failures = json.load(handle)["failures"]
    # Name the failed runs: pytest may cut the count out of stderr, and
    # a message that is not a string.
    assert "3 run(s) failed (9 survived)" in capsys.readouterr().err, "\n".join(
        f"{f['run_id']} [{f['kind']}] {f['message']}" for f in failures
    )
    assert sorted(f["kind"] for f in failures) == ["exception", "timeout", "worker-crash"]
    # Resuming without the plan executes exactly the three failed runs.
    records = []
    monkeypatch.setattr(cli, "_print_record", records.append)
    assert cli.main(SWEEP + ["--store", store, "--out", str(out)]) == 0
    assert "9 cache hit(s), 3 executed" in capsys.readouterr().err
    executed = sorted(r.request.run_id for r in records if not r.cached)
    assert executed == sorted(f["run_id"] for f in failures)
    assert not (out / "failures.json").exists()
    assert_same_export(clean, out)


@pytest.mark.slow
def test_killed_sweep_resumes_byte_identically(tmp_path, capsys):
    # Under the default fail policy, 5=raise kills the sweep at request
    # 5 after runs 0-4 were checkpointed into the store.
    reference, out = tmp_path / "reference", tmp_path / "resumed"
    store = f"sqlite:{tmp_path / 'resume.sqlite'}"
    assert cli.main(SWEEP + ["--jobs", "2", "--out", str(reference)]) == 0
    with pytest.raises(InjectedFault):
        cli.main(SWEEP + ["--fault-plan", "5=raise", "--store", store])
    capsys.readouterr()
    assert cli.main(SWEEP + ["--store", store, "--out", str(out)]) == 0
    assert "5 cache hit(s), 7 executed" in capsys.readouterr().err
    assert_same_export(reference, out)
    uninterrupted = f"sqlite:{tmp_path / 'uninterrupted.sqlite'}"
    assert cli.main(SWEEP + ["--store", uninterrupted, "--jobs", "2"]) == 0
    with open_store(store) as resumed, open_store(uninterrupted) as clean:
        assert resumed.digest() == clean.digest()
    # compare over the store renders the bytes compare over the tree does.
    capsys.readouterr()
    assert cli.main(["compare", str(tmp_path / "resume.sqlite")]) == 0
    over_store = capsys.readouterr().out
    assert cli.main(["compare", str(reference)]) == 0
    assert capsys.readouterr().out == over_store


def test_recorded_sweep_streams_grammar_and_leaves_exports_alone(tmp_path):
    events_dir = tmp_path / "events"
    recorded, plain = tmp_path / "recorded", tmp_path / "plain"
    argv = TELEMETRY_SWEEP + ["--out", str(recorded), "--telemetry", str(events_dir)]
    assert cli.main(argv) == 0
    files = sorted(os.listdir(events_dir))
    assert len(files) == 2, files
    for name in files:
        with open(events_dir / name) as handle:
            events = [json.loads(line) for line in handle]
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "RunStarted", (name, kinds)
        assert kinds[-1] in ("RunFinished", "RunFailed"), (name, kinds)
        assert kinds.count("RunStarted") == 1, (name, kinds)
        assert kinds.count("RunFinished") + kinds.count("RunFailed") == 1, (name, kinds)
        assert kinds.count("RunProgress") >= 2, (name, kinds)
        assert kinds.count("MetricSample") >= 1, (name, kinds)
        times = [e["time_s"] for e in events if e["kind"] == "RunProgress"]
        assert times == sorted(times), (name, times)
    # The same sweep unobserved exports the same bytes.
    assert cli.main(TELEMETRY_SWEEP + ["--out", str(plain)]) == 0
    assert_same_export(recorded, plain)


def test_sse_stream_over_live_http_until_finished(tmp_path):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.service",
            "--store", f"sqlite:{tmp_path / 'events.sqlite'}",
            "--port", "0", "--jobs", "2", "--quiet",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=REPO,
    )
    try:
        banner = proc.stdout.readline()
        assert "repro sweep service on http://" in banner, banner
        base = banner.split()[4].rstrip("/")
        study = {
            "experiment": "meshgen",
            "grid": {"seed": [1, 2]},
            "set": {"topology": "mesh", "nodes": 9, "flows": 2, "duration_s": 4,
                    "warmup_s": 1, "fidelity": "slotted"},
        }
        request = urllib.request.Request(
            f"{base}/studies",
            data=json.dumps(study).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            job_id = json.loads(response.read())["id"]
        # The service closes the stream once the job is terminal and its
        # log fully replayed, so reading to EOF follows the whole job.
        with urllib.request.urlopen(f"{base}/jobs/{job_id}/events", timeout=120) as response:
            raw = response.read().decode()
        frames = []
        for block in raw.split("\n\n"):
            if not block.strip() or block.startswith(":"):
                continue
            fields = dict(line.split(": ", 1) for line in block.splitlines())
            frames.append((int(fields["id"]), fields["event"]))
        ids = [frame_id for frame_id, _ in frames]
        kinds = [kind for _, kind in frames]
        assert ids == sorted(set(ids)), ids
        assert kinds.count("RunStarted") == 2, kinds
        assert kinds.count("RunFinished") == 2, kinds
        assert kinds[-1] == "RunFinished", kinds
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()

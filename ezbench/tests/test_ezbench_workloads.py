"""Workload determinism and failure accounting, at the tiny size."""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(REPO, "src"))

import workloads  # noqa: E402
from proc import stream_errors  # noqa: E402
from workloads import Context, Outcome  # noqa: E402


def bench(workload: str, seed: int):
    """Run the benchmark at the tiny size; (digest, final JSON object)."""
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--size", "tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    digest = lines[0].rsplit("digest ", 1)[1]
    return digest, json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["paper", "mesh", "service"])
def test_same_seed_same_digest_other_seed_other_digest(workload):
    first, result = bench(workload, 1)
    again, _ = bench(workload, 1)
    other, _ = bench(workload, 2)
    assert result["correct"] and result["failed"] == 0
    assert first == again
    assert other != first


def test_refuses_to_run_without_the_program(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def context(tmp_path) -> Context:
    return Context(REPO, str(tmp_path), seed=1, seconds=0.0, size="tiny")


def test_unplaceable_topology_is_one_failed_run_not_retried(tmp_path):
    ctx = context(tmp_path)
    config = workloads.mesh_config(ctx, str(tmp_path / "store.sqlite"), False)
    impossible = {
        "name": "unplaceable",
        "set": {"topology": "mesh", "nodes": 40, "density": 0.05, "flows": 2,
                "duration_s": 1.0, "warmup_s": 0.5, "seed": 3},
        "grid": {},
    }
    config["groups"] = [impossible] + config["groups"][-2:]  # lossy: none, ezflow
    child = workloads.program_child(ctx, "mesh", config, "mesh.log")
    child.wait_tag("READY")
    result = child.wait_tag("RESULT")
    child.finish()
    assert [f["attempts"] for f in result["failures"]] == [1]
    assert result["uncached"] == 0  # the failed run's Study is not resubmitted
    outcome = Outcome()
    workloads.account_mesh(outcome, [result])
    assert outcome.failed == 1
    # 3 runs, compare, and the two other runs' cache hits per resubmission
    assert outcome.attempted == result["attempted"] == 4 + 2 * workloads.RESUBMISSIONS["tiny"]


def test_failed_jobs_and_http_errors_count_and_the_loop_goes_on(tmp_path, monkeypatch):
    ctx = context(tmp_path)
    good = workloads.service_payload
    bad = {
        0: {"experiment": "meshgen", "grid": {"no_such_axis": [1]}},  # HTTP 400
        1: {"experiment": "meshgen",  # the job fails: no placement exists
            "set": {"topology": "mesh", "nodes": 40, "density": 0.05, "seed": 3}},
    }
    monkeypatch.setattr(
        workloads, "service_payload", lambda seed, cycle, size: bad.get(cycle) or good(seed, cycle, size)
    )
    outcome = Outcome()
    session = workloads.service_session(ctx, outcome, minimum=3, label="faults")
    assert outcome.failed == 2
    assert outcome.attempted == 3 * 2 + 1  # two trips per cycle, plus the service exit
    assert len(session.fresh.raws) == len(session.cached.raws) == 1
    assert session.client_stats.http_errors == 1


def test_stream_grammar_violations_are_reported():
    started = ("RunStarted", {"run_id": "a"})
    finished = ("RunFinished", {"run_id": "a", "cached": False})
    progress = ("RunProgress", {"run_id": "a"})
    assert stream_errors([started, progress, finished], cached=False) == []
    assert stream_errors([progress, started, finished], cached=False)
    assert stream_errors([started, progress], cached=False)
    assert stream_errors([started, finished, progress], cached=False)
    cached_finish = ("RunFinished", {"run_id": "a", "cached": True})
    assert stream_errors([started, cached_finish], cached=True) == []
    assert stream_errors([started, progress, cached_finish], cached=True)

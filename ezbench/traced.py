"""The traced run (``--trace 1``): where one workload's time goes.

The traced invocation runs the workload's unit twice, untraced then
traced, on the same inputs. The traced copy's program processes load
``tracing.py`` (spans, counts, a CPU-time sampler); this module merges
their trace files into the per-layer metrics below.
``trace.overhead`` is the traced unit's wall time over the untraced
one's. End-to-end metrics never come from here.

Every traced run prints every per-layer metric; a layer the workload
does not reach reads 0.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import re
import sys
import time
from typing import Dict, List

import workloads
from stats import median
from workloads import Context, Metric, Outcome

#: Top-level program layers (``repro.<layer>``), for import times.
IMPORT_LAYERS = (
    "sim", "phy", "mac", "core", "net", "traffic", "transport", "metrics",
    "analysis", "baselines", "topology", "experiments", "results", "service",
    "telemetry",
)

#: Layers whose self time comes from the sampler.
SAMPLED_LAYERS = (
    "sim", "slotted", "phy", "mac", "core", "net", "traffic", "transport",
    "metrics", "analysis", "baselines", "telemetry",
)

#: Counts recorded by the wrappers, reported as they are.
COUNTS = (
    "phy.transmissions", "mac.ack_timeouts", "mac.tx_drops", "net.queue_drops",
    "transport.retransmissions", "core.boe_overheard", "core.caa_changes",
    "topology.attempts", "topology.reroutes", "runner.runs", "runner.cached",
    "runner.failed", "runner.retried", "telemetry.events",
)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"sim.events": "count", "sim.ns_per_event": "ns", "slotted.slots": "count", "slotted.us_per_slot": "us"}
    for layer in SAMPLED_LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units.update(
        {
            "core.boe_match_ratio": "ratio",
            "topology.generate_s": "s",
            "topology.generations": "count",
            "runner.overhead_s": "s",
            "runner.result_kb": "KiB",
            "store.puts": "count",
            "store.put_s": "s",
            "store.gets": "count",
            "store.get_s": "s",
            "store.hit_ratio": "ratio",
            "store.finalize_s": "s",
            "store.file_kb": "KiB",
            "compare.s": "s",
            "service.requests": "count",
            "service.http_errors": "count",
            "service.post_s": "s",
            "service.queue_wait_s": "s",
            "service.stream_s": "s",
            "service.compare_fetch_s": "s",
        }
    )
    for layer in IMPORT_LAYERS:
        units[f"setup.import_s.{layer}"] = "s"
    units["setup.spawn_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


# -- merging trace files --------------------------------------------------


def load_traces(trace_dir: str) -> List[dict]:
    traces = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "trace-*.json"))):
        with open(path) as handle:
            traces.append(json.load(handle))
    return traces


def layer_values(traces: List[dict]) -> Dict[str, float]:
    values: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    spans = []
    for trace in traces:
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        per_tick = trace["cpu_s"] / trace["ticks"] if trace["ticks"] else 0.0
        for layer, samples in trace["samples"].items():
            key = f"{layer}.self_s"
            values[key] = values.get(key, 0.0) + samples * per_tick
        # Span ids are per process: key them by (pid, id).
        spans.extend((trace["pid"],) + tuple(span) for span in trace["spans"])

    def total(name: str) -> float:
        return sum(end - start for _, n, start, end, *_ in spans if n == name)

    def number(name: str) -> int:
        return sum(1 for span in spans if span[1] == name)

    for name in COUNTS:
        values[name] = counts.get(name, 0.0)
    events = counts.get("sim.events", 0.0)
    values["sim.events"] = events
    values["sim.ns_per_event"] = total("sim.run") / events * 1e9 if events else 0.0
    slots = counts.get("slotted.slots", 0.0)
    values["slotted.slots"] = slots
    values["slotted.us_per_slot"] = values.get("slotted.self_s", 0.0) / slots * 1e6 if slots else 0.0
    overheard = counts.get("core.boe_overheard", 0.0)
    values["core.boe_match_ratio"] = counts.get("core.boe_matched", 0.0) / overheard if overheard else 0.0
    values["topology.generate_s"] = total("topology.generate")
    values["topology.generations"] = number("topology.generate")
    gets = number("store.get")
    values.update(
        {
            "store.puts": number("store.put"),
            "store.put_s": total("store.put"),
            "store.gets": gets,
            "store.get_s": total("store.get"),
            "store.hit_ratio": counts.get("store.hits", 0.0) / gets if gets else 0.0,
            "store.finalize_s": total("store.finalize"),
            "compare.s": total("compare"),
            "runner.result_kb": counts.get("runner.result_bytes", 0.0) / 1024.0,
        }
    )
    # Sweep span minus run walls and the store work done inside it:
    # spawn, pickling, dispatch and supervision waits.
    by_id = {(span[0], span[6]): span for span in spans}

    def under_sweep(span) -> bool:
        parent = span[4]
        while parent:
            ancestor = by_id.get((span[0], parent))
            if ancestor is None:
                return False
            if ancestor[1] == "runner.sweep":
                return True
            parent = ancestor[4]
        return False

    store_in_sweeps = sum(
        span[3] - span[2] for span in spans if span[1].startswith("store.") and under_sweep(span)
    )
    values["runner.overhead_s"] = (
        total("runner.sweep") - counts.get("runner.run_wall_s", 0.0) - store_in_sweeps
        if number("runner.sweep")
        else 0.0
    )
    return values


# -- set-up layers ---------------------------------------------------------

IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S.*)$")


def import_seconds(log_path: str) -> Dict[str, float]:
    """Self import time per top-level layer, from ``-X importtime`` output."""
    seconds = {layer: 0.0 for layer in IMPORT_LAYERS}
    with open(log_path) as handle:
        for line in handle:
            match = IMPORTTIME.search(line)
            if not match:
                continue
            parts = match.group(2).strip().split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in seconds:
                seconds[parts[1]] += int(match.group(1)) / 1e6
    return seconds


def setup_layers(ctx: Context, argv: List[str]) -> Dict[str, float]:
    child = workloads.Child(ctx, [sys.executable, "-X", "importtime"] + argv, "importtime.log")
    child.finish()
    values = {f"setup.import_s.{k}": v for k, v in import_seconds(child.log_path).items()}

    def bare_launch() -> float:
        launch = workloads.Child(ctx, [sys.executable, "-c", "print('READY {}', flush=True)"], "spawn.log")
        launch.wait_tag("READY")
        ready_s = time.perf_counter() - launch.started
        launch.finish()
        return ready_s

    values["setup.spawn_s"] = workloads.timed_launches(ctx, 3, bare_launch).value
    return values


# -- the traced run --------------------------------------------------------


def unit_sums(units) -> List[float]:
    """Rescaled wall time of each unit, from its ``[raw, index]`` operations."""
    return [sum(raw * index for raw, index in unit) for unit in units]


def run(ctx: Context, workload: str):
    outcome = Outcome()
    if workload == "paper":
        config = {"requests": workloads.paper_requests(ctx.seed, ctx.size, 0), "ready_only": True}
        values = setup_layers(ctx, [workloads.CHILD, "paper", json.dumps(config)])
        plain = workloads.paper_pass(ctx, 0, "untraced")
        traced = workloads.paper_pass(ctx, 0, "traced", traced=True)
        units, _, _, digests = workloads.account_paper(outcome, [plain, traced])
        walls = unit_sums(units)
        store_files = [ctx.path("paper-traced.sqlite")]
    elif workload == "mesh":
        config = workloads.mesh_config(ctx, ctx.path("importtime.sqlite"), True)
        values = setup_layers(ctx, [workloads.CHILD, "mesh", json.dumps(config)])
        plain = workloads.mesh_sweep(ctx, 0, "untraced")
        traced = workloads.mesh_sweep(ctx, 0, "traced", traced=True)
        units, _, _, digests = workloads.account_mesh(outcome, [plain, traced])
        walls = unit_sums(units)
        values["setup.spawn_s"] += median([s.get("spawn_s", 0.0) for s in (plain, traced)])
        store_files = [ctx.path("sweep-traced.sqlite")]
    else:
        values = setup_layers(ctx, ["-c", "import repro.service.__main__"])
        # A fixed number of cycles per session, whatever --seconds says.
        fixed = dataclasses.replace(ctx, seconds=0.0)
        minimum = workloads.MIN_UNITS["service"][ctx.size] // 2 or 1
        plain = workloads.service_session(fixed, outcome, minimum, "untraced")
        traced = workloads.service_session(fixed, outcome, minimum, "traced", traced=True)
        sessions = (plain, traced)
        walls = [s.cycles.median().value for s in sessions] if all(s.cycles.raws for s in sessions) else []
        stats = traced.client_stats
        values.update(
            {
                "service.requests": stats.requests,
                "service.http_errors": stats.http_errors,
                "service.post_s": median(stats.seconds.get("post", [0.0])),
                "service.queue_wait_s": median(traced.queue_waits or [0.0]),
                "service.stream_s": median(stats.seconds.get("stream", [0.0])),
                "service.compare_fetch_s": median(stats.seconds.get("compare", [0.0])),
            }
        )
        digests = [plain.digest, traced.digest]
        store_files = [ctx.path("service-traced.sqlite")]
    if len(set(digests)) > 1:
        outcome.fail(1, "tracing changed the program's outputs")
    workloads.run_checks(ctx, outcome)
    values.update(layer_values(load_traces(ctx.trace_dir)))
    values["store.file_kb"] = sum(os.path.getsize(p) for p in store_files if os.path.exists(p)) / 1024.0
    values["trace.overhead"] = walls[1] / walls[0] if len(walls) == 2 and walls[0] else 0.0
    units = per_layer_units()
    metrics = {name: Metric(float(values.get(name, 0.0)), unit, 1) for name, unit in units.items()}
    return outcome, metrics

"""Benchmark-side tracing, installed into program processes of a traced run.

``child.py`` calls :func:`install` when ``EZBENCH_TRACE_DIR`` is set.
Nothing here changes what the program computes: the wrappers call the
original functions with the original arguments and only record.

* **Spans** around the public entry points of the coarse layers
  (``Engine.run``, ``generate_topology``, the store's
  ``put``/``get``/``finalize``, ``compare``, ``SweepRunner.run``). Each
  span records name, start, end, parent span and an operation id shared
  by every span under one outermost span.
* **Counts** at the hot per-frame boundaries (``Channel.transmit``,
  ``BufferOccupancyEstimator.note_overheard``,
  ``ChannelAccessAdapter.on_sample``, ``SlottedMesh.step``, queue
  pushes, MAC timeouts and drops), where a span per call would cost
  more than the work.
* **Self time inside the event core** from a sampler: a CPU-time timer
  (``ITIMER_PROF``) interrupts the process and the interrupted frame of
  each busy thread is charged to its ``repro.<layer>`` module. The
  engine calls the ``phy``/``mac``/``core``/``net`` callbacks directly,
  so spans cannot split that time; a deterministic profiler would
  inflate call-heavy layers.

Spans, counts and samples stay in memory and are written to
``<dir>/trace-<pid>-<token>.json`` by :func:`dump`. A pool worker
writes one file after each run and starts afresh, because the runner
terminates its workers instead of letting them return.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import signal
import sys
import threading
import time
import uuid
from collections import defaultdict

#: Sampling period of the CPU-time timer, in seconds.
SAMPLE_PERIOD_S = 0.002

#: Modules whose innermost frame means the thread is waiting, not working.
WAITING_MODULES = (
    "threading", "selectors", "socket", "socketserver", "queue", "subprocess",
    "concurrent.futures", "multiprocessing", "http.server", "wsgiref", "ssl",
)

#: Benchmark modules: time under them is the benchmark's, not a layer's.
BENCH_MODULES = ("probe", "child", "tracing", "__mp_main__", "__main__")

_TRACER = None


def layer_of(module: str) -> str:
    """``repro.sim.slotted`` -> ``slotted``; ``repro.mac.dcf`` -> ``mac``."""
    if module == "repro.sim.slotted":
        return "slotted"
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def _classify(frame):
    """The layer a busy thread's innermost frame is charged to, or None."""
    module = frame.f_globals.get("__name__", "")
    if module.startswith(WAITING_MODULES):
        return None
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            return layer_of(module)
        if module in BENCH_MODULES:
            return None
        frame = frame.f_back
    return None


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans = []  # (name, start, end, parent id, op id, span id)
        self.counts = defaultdict(float)
        self.samples = defaultdict(float)
        self.ticks = 0
        self.cpu_started = time.process_time()
        self.instances = []  # WindowedSender objects, for retransmissions

    # -- spans -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` may count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent, op = stack[-1] if stack else (0, span_id)
            stack.append((span_id, op))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((name, start, end, parent, op, span_id))
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counter(self, fn, after):
        """Wrap ``fn`` so ``after(result, args)`` can count each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return wrapper

    # -- sampler -----------------------------------------------------------

    def _on_tick(self, signum, frame) -> None:
        busy = []
        main = threading.main_thread().ident
        for ident, top in sys._current_frames().items():
            layer = _classify(frame if ident == main else top)
            if layer is not None:
                busy.append(layer)
        self.ticks += 1
        for layer in busy:
            self.samples[layer] += 1.0 / len(busy)

    def start_sampler(self) -> None:
        signal.signal(signal.SIGPROF, self._on_tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    # -- output ------------------------------------------------------------

    def dump(self) -> None:
        cpu_s = time.process_time() - self.cpu_started
        counts = dict(self.counts)
        counts["transport.retransmissions"] = float(
            sum(sender.retransmissions for sender in self.instances)
        )
        document = {
            "pid": self.pid,
            "cpu_s": cpu_s,
            "ticks": self.ticks,
            "samples": dict(self.samples),
            "counts": counts,
            "spans": self.spans,
        }
        # One file per dump: a pool worker writes one after every run.
        path = os.path.join(self.out_dir, f"trace-{self.pid}-{uuid.uuid4().hex}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(document, handle)
        os.replace(path + ".tmp", path)


def _replace_everywhere(original, wrapper) -> None:
    """Point every loaded ``repro`` module's reference at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _patch_method(cls, name: str, make) -> None:
    setattr(cls, name, make(getattr(cls, name)))


def install(out_dir: str) -> None:
    """Install the wrappers and start the sampler in this process."""
    global _TRACER
    import repro.experiments.tiers  # noqa: F401  (binds generate_topology)
    import repro.results  # noqa: F401
    from repro.core.boe import BufferOccupancyEstimator
    from repro.core.caa import ChannelAccessAdapter
    from repro.experiments.runner import SweepRunner
    from repro.experiments.specs import ScenarioSpec
    from repro.mac.dcf import Dcf, TxEntity
    from repro.mac.queues import FifoQueue
    from repro.phy.channel import Channel
    from repro.results.store import SqliteStore
    from repro.sim.engine import Engine
    from repro.sim.slotted import SlottedMesh
    from repro.telemetry.hub import TelemetryHub
    from repro.topology import churn, meshgen
    from repro.transport.window import WindowedSender

    tracer = _TRACER = Tracer(out_dir)

    def bump(key, amount=1.0):
        tracer.counts[key] += amount  # looked up per call: a fork resets it

    # Event core: spans around Engine.run, counts at the per-frame hooks.
    def engine_run(fn):
        def run(self, *args, **kwargs):
            before = self.processed_events
            try:
                return wrapped(self, *args, **kwargs)
            finally:
                bump("sim.events", self.processed_events - before)

        wrapped = tracer.span("sim.run", fn)
        return functools.wraps(fn)(run)

    _patch_method(Engine, "run", engine_run)
    _patch_method(Channel, "transmit", lambda fn: tracer.counter(fn, lambda r, a: bump("phy.transmissions")))

    def overheard(result, args):
        bump("core.boe_overheard")
        if result is not None:
            bump("core.boe_matched")

    _patch_method(BufferOccupancyEstimator, "note_overheard", lambda fn: tracer.counter(fn, overheard))

    def caa_sample(result, args):
        if result is not None and result.changed:
            bump("core.caa_changes")

    _patch_method(ChannelAccessAdapter, "on_sample", lambda fn: tracer.counter(fn, caa_sample))
    _patch_method(TxEntity, "on_ack_timeout", lambda fn: tracer.counter(fn, lambda r, a: bump("mac.ack_timeouts")))
    _patch_method(Dcf, "notify_tx_drop", lambda fn: tracer.counter(fn, lambda r, a: bump("mac.tx_drops")))
    _patch_method(
        FifoQueue, "push", lambda fn: tracer.counter(fn, lambda r, a: r is False and bump("net.queue_drops"))
    )
    _patch_method(
        WindowedSender, "__init__", lambda fn: tracer.counter(fn, lambda r, a: tracer.instances.append(a[0]))
    )

    # Slotted tier and topology generation.
    _patch_method(SlottedMesh, "step", lambda fn: tracer.counter(fn, lambda r, a: bump("slotted.slots")))
    routed = set()

    def set_routes(result, args):
        mesh = id(args[0])
        if mesh in routed:
            bump("topology.reroutes")
        routed.add(mesh)

    _patch_method(SlottedMesh, "set_routes", lambda fn: tracer.counter(fn, set_routes))
    for cls in vars(churn).values():
        if isinstance(cls, type) and "_reroute" in vars(cls):
            _patch_method(cls, "_reroute", lambda fn: tracer.counter(fn, lambda r, a: bump("topology.reroutes")))
    original = meshgen.generate_topology
    _replace_everywhere(
        original,
        tracer.span(
            "topology.generate", original, lambda r, a, k: bump("topology.attempts", r.attempts)
        ),
    )

    # Results plane: the store, compare, the sweep runner.
    def store_get(result, args, kwargs):
        if result is not None:
            bump("store.hits")

    _patch_method(SqliteStore, "put", lambda fn: tracer.span("store.put", fn))
    _patch_method(SqliteStore, "get", lambda fn: tracer.span("store.get", fn, store_get))
    _patch_method(SqliteStore, "finalize", lambda fn: tracer.span("store.finalize", fn))
    original = importlib.import_module("repro.results.compare").compare
    _replace_everywhere(original, tracer.span("compare", original))

    def swept(records, args, kwargs):
        for record in records:
            if record.failure is not None:
                bump("runner.failed")
                bump("runner.retried", record.failure.attempts - 1)
            elif record.cached:
                bump("runner.cached")
            else:
                bump("runner.runs")
                bump("runner.run_wall_s", record.wall_s)
                bump("runner.result_bytes", len(pickle.dumps(record.result)))

    _patch_method(SweepRunner, "run", lambda fn: tracer.span("runner.sweep", fn, swept))
    _patch_method(TelemetryHub, "emit", lambda fn: tracer.counter(fn, lambda r, a: bump("telemetry.events")))

    # A pool worker is ended by the runner, never by returning: it
    # writes its trace after every run. A forked worker starts clean.
    def spec_run(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            try:
                return fn(self, *args, **kwargs)
            finally:
                if os.getpid() != root_pid:
                    tracer.dump()
                    tracer.reset()

        return run

    root_pid = os.getpid()
    _patch_method(ScenarioSpec, "run", spec_run)
    os.register_at_fork(after_in_child=lambda: (tracer.reset(), tracer.start_sampler()))
    tracer.start_sampler()


def dump() -> None:
    """Stop tracing and write this process's trace (later calls do nothing)."""
    global _TRACER
    if _TRACER is not None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        _TRACER.dump()
        _TRACER = None

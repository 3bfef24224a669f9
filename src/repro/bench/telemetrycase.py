"""Telemetry overhead benchmark: attached vs detached run wall time.

The telemetry plane's contract is that it is free when nobody listens
and cheap when someone does. This case measures both sides on the same
scenario (meshgen at 49 nodes, the mid-size scaling point): a detached
run (no active probe — the production default) and an attached run with
an active :class:`~repro.telemetry.probe.ProbeSession` feeding a
counting listener at the default 1 s simulated sampling interval. Each
side is best-of-``rounds`` so scheduler noise does not masquerade as
probe cost. The reported ``overhead_frac`` is
``attached/detached - 1``; the acceptance budget is < 5 %.
"""

from __future__ import annotations


def telemetry_overhead(nodes: int = 49, density: float = 1.5, rounds: int = 3) -> dict:
    from repro.experiments import testbedlab
    from repro.experiments.specs import get_spec
    from repro.telemetry.hub import TelemetryHub
    from repro.telemetry.probe import ProbeSession, probe_scope
    from repro.topology import meshgen

    import gc
    import time

    spec = get_spec("meshgen")
    kwargs = {"nodes": nodes, "density": density}

    def best_wall(run_once) -> float:
        best = None
        for _ in range(max(1, rounds)):
            testbedlab.clear_cache()
            meshgen.clear_cache()
            gc.collect()
            started = time.perf_counter()
            run_once()
            wall = time.perf_counter() - started
            if best is None or wall < best:
                best = wall
        return best

    # Detached: no active probe session — the plane costs one
    # thread-local read per run.
    detached = best_wall(lambda: spec.run(**kwargs))

    # Attached: a live hub with a subscribed (counting) listener and an
    # active probe session, exactly the wiring a --live sweep gives a
    # worker.
    hub = TelemetryHub()
    seen = []
    hub.subscribe(seen.append)
    session = ProbeSession(
        emit=hub.emit, run_id="bench", sample_interval_s=hub.sample_interval_s
    )

    def attached_run():
        with probe_scope(session):
            spec.run(**kwargs)

    attached = best_wall(attached_run)

    return {
        "events": len(seen) // max(1, rounds),
        "detached_wall_s": round(detached, 6),
        "attached_wall_s": round(attached, 6),
        "overhead_frac": round(attached / detached - 1.0, 6),
    }


#: name -> (callable, kwargs); merged into the micro-case lookup.
TELEMETRY_CASES = {
    "telemetry.overhead": (telemetry_overhead, {"nodes": 49, "density": 1.5}),
}

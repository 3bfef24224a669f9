"""Result-store benchmark: insert + streaming-aggregation throughput.

One synthetic store of ``runs`` runs (200 in the suite), measured end
to end: ``put`` every record into a
:class:`~repro.results.store.SqliteStore`, then run the two streaming
consumers the store exists for — ``scalars_frame`` (columnar, no
payload materialisation) and :func:`~repro.results.compare` — over a
lazily loaded :class:`~repro.results.ResultSet`. The run payloads are
two real (tiny) meshgen results cloned across a synthetic seed axis, so
serialisation cost is representative without simulating every run; the
reported ``events`` count one unit per insert and per streamed row.
"""

from __future__ import annotations

import os
import tempfile


def results_store(runs: int = 1000) -> dict:
    from repro.experiments.runner import RunRecord, RunRequest
    from repro.experiments.specs import get_spec
    from repro.results import ResultSet, compare, render_compare
    from repro.results.store import SqliteStore

    base_kwargs = {"nodes": 9, "flows": 2, "duration_s": 2.0, "warmup_s": 0.5}
    spec = get_spec("meshgen")
    templates = {
        algorithm: spec.run(algorithm=algorithm, **base_kwargs).to_dict()
        for algorithm in ("none", "ezflow")
    }
    result_type = type(spec.run(algorithm="none", **base_kwargs))

    events = 0
    with tempfile.TemporaryDirectory() as tmp:
        with SqliteStore(os.path.join(tmp, "bench.sqlite")) as store:
            for index in range(runs):
                algorithm = "none" if index % 2 == 0 else "ezflow"
                seed = 1000 + index // 2
                payload = dict(templates[algorithm])
                payload["parameters"] = dict(payload["parameters"], seed=seed)
                result = result_type.from_dict(payload)
                kwargs = dict(base_kwargs, algorithm=algorithm, seed=seed)
                request = RunRequest(
                    spec_id="meshgen",
                    kwargs=tuple(sorted(kwargs.items())),
                    run_id=f"meshgen~algorithm={algorithm}~seed={seed}",
                )
                store.put(RunRecord(request, result, wall_s=0.0))
                events += 1
            results = ResultSet.from_store(store)
            frame = results.scalars_frame()
            events += len(frame.rows)
            rendered = render_compare(compare(results))
            events += rendered.count("\n")
    return {"events": events}


#: name -> (callable, kwargs); merged into the micro-case lookup.
STORE_CASES = {
    "results.store.quick.n200": (results_store, {"runs": 200}),
}

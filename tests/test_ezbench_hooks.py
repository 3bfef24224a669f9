"""The benchmark's per-layer tracer still finds every method it wraps.

``ezbench/tracing.py`` wraps program methods by name when a benchmark
run asks for a per-layer split (``--trace 1``): among them the store's
``put``/``get``/``finalize``, ``Engine.run``, ``FifoQueue.push`` and
``SlottedMesh.step``. Renaming or removing one of them breaks only a
traced benchmark run, so this test installs the tracer in a fresh
interpreter and dumps its trace.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {ezbench!r}]
import tracing
tracing.install({out!r})
tracing.dump()
"""


def test_tracer_installs_and_dumps_in_a_fresh_interpreter(tmp_path):
    script = SCRIPT.format(
        src=os.path.join(REPO, "src"),
        ezbench=os.path.join(REPO, "ezbench"),
        out=str(tmp_path),
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("trace-*.json"))) == 1

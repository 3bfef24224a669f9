"""Cross-process determinism: results must not depend on PYTHONHASHSEED.

Node ids can be strings; if any hot path iterated raw sets, the event
order — and hence every RNG draw — would differ between processes with
different hash seeds. This regression test runs a short testbed
simulation in two subprocesses with different hash seeds and demands
bit-identical statistics.
"""

import os
import subprocess
import sys

import pytest

import repro

# Heavy end-to-end simulations: excluded from the CI fast lane.
pytestmark = pytest.mark.slow

SCRIPT = """
from repro.core import attach_ezflow
from repro.sim.units import seconds
from repro.topology.testbed import testbed_network

net = testbed_network(seed=4, flows=("F1", "F2"))
attach_ezflow(net.nodes)
net.run(until_us=seconds(20))
print(
    net.flow("F1").delivered,
    net.flow("F2").delivered,
    sum(e.tx_attempts for node in net.nodes.values() for e in node.mac.entities),
    net.nodes["N4"].total_buffer_occupancy(),
)
"""


def run_with_hashseed(seed: str) -> str:
    # The child needs to import repro; derive the import root from the
    # installed package itself so the test works from any invocation
    # (plain `PYTHONPATH=src pytest`, editable install, tox, ...).
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={
            "PYTHONHASHSEED": seed,
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": import_root,
        },
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_results_independent_of_hash_seed():
    assert run_with_hashseed("1") == run_with_hashseed("424242")

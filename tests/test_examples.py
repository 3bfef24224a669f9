"""Every script under ``examples/`` runs to completion.

Each example is run as a user runs it, in a fresh interpreter with
``PYTHONPATH=src``, at flags small enough to take well under a second,
and must exit 0. An API change an example still relies on shows up
here instead of in a reader's terminal.
"""

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (script, small flags) for every example.
EXAMPLES = (
    ("adaptive_rate_control.py", ["--duration", "5"]),
    ("mesh_backhaul.py", ["--time-scale", "0.005"]),
    ("parking_lot_fairness.py", ["--duration", "5"]),
    ("passive_estimation.py", ["--duration", "3"]),
    ("quickstart.py", ["--duration", "5"]),
    ("stability_analysis.py", ["--slots", "2000", "--trials", "10"]),
)


def test_every_example_is_listed():
    scripts = sorted(n for n in os.listdir(os.path.join(REPO, "examples")) if n.endswith(".py"))
    assert scripts == sorted(script for script, _ in EXAMPLES)


@pytest.mark.parametrize("script,flags", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_example_exits_zero(script, flags):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(REPO, "examples", script)] + flags,
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]

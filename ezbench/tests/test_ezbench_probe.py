"""The hardware index must not depend on the code under test."""

import json
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)


def fresh_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_probe_loads_no_repro_module():
    code = (
        f"import json, sys; sys.path.insert(0, {BENCH!r}); import probe; "
        "probe.index_of(probe.probe_s()); "
        "print(json.dumps(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))))"
    )
    assert json.loads(fresh_python(code)) == []


def test_pinning_is_inherited_by_children():
    code = (
        f"import os, subprocess, sys; sys.path.insert(0, {BENCH!r}); import probe; "
        "cpu = probe.pin_to_one_cpu(); "
        "child = subprocess.run([sys.executable, '-c', 'import os; print(sorted(os.sched_getaffinity(0)))'], "
        "capture_output=True, text=True); "
        "print(cpu, child.stdout.strip())"
    )
    cpu, mask = fresh_python(code).split(" ", 1)
    assert json.loads(mask) == [int(cpu)]


def test_calibrator_rescales_by_bracketing_probes():
    sys.path.insert(0, BENCH)
    import probe

    calibrator = probe.Calibrator()
    calibrator.probes = [probe.REFERENCE_PROBE_S, 3 * probe.REFERENCE_PROBE_S]
    # Twice the reference probe time on average: half the reference speed.
    assert calibrator.bracket_index() == 0.5

"""Golden byte-identity regression tests.

``tests/goldens/`` holds checked-in exports of representative runs
(generated by ``tests/make_goldens.py``): a small canned figure and
meshgen runs on both engine tiers. These tests re-run each and assert
the exported artefacts reproduce the committed bytes exactly — pinning
simulator semantics, RNG draw order, float formatting and export layout
through performance refactors. A legitimate behaviour change must
regenerate the goldens (and say so); an optimization must not touch
them.
"""

from __future__ import annotations

import filecmp
import os

import pytest

from repro.experiments.export import export_result
from repro.experiments.runner import execute_request, request_for
try:
    from tests.make_goldens import GOLDEN_DIR, GOLDEN_RUNS
except ImportError:  # pytest may put tests/ itself on sys.path instead
    from make_goldens import GOLDEN_DIR, GOLDEN_RUNS


@pytest.mark.parametrize(
    "spec_id,kwargs,dir_name", GOLDEN_RUNS, ids=[r[2] for r in GOLDEN_RUNS]
)
def test_export_reproduces_golden_bytes(tmp_path, spec_id, kwargs, dir_name):
    golden = os.path.join(GOLDEN_DIR, dir_name)
    assert os.path.isdir(golden), "run tests/make_goldens.py to create goldens"

    record = execute_request(request_for(spec_id, kwargs))
    produced = export_result(record.result, str(tmp_path), dir_name)

    golden_files = sorted(os.listdir(golden))
    produced_files = sorted(os.listdir(produced))
    assert produced_files == golden_files

    mismatched = [
        name
        for name in golden_files
        if not filecmp.cmp(
            os.path.join(golden, name), os.path.join(produced, name), shallow=False
        )
    ]
    assert not mismatched, f"byte drift vs goldens in {dir_name}: {mismatched}"

"""Helpers shared by ``run.py`` and the launched programs.

Seeds, digests, peak RSS from ``/proc``, and the run-event grammar.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Tuple

#: Harnesses whose tables carry the paper's values: the fig4 means,
#: Table 2 and Table 3 (scenario2).
PAPER_VALUE_IDS = ("fig4", "table2", "scenario2")


def derive_seed(seed: int, name: str) -> int:
    """A per-input seed, a pure function of the benchmark seed and a name."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).hexdigest()
    return int(digest[:8], 16) % 1_000_000


def digest_of(documents: Iterable[object]) -> str:
    """sha256 over canonical JSON of ``documents``, in order."""
    hasher = hashlib.sha256()
    for document in documents:
        hasher.update(json.dumps(document, sort_keys=True, default=list).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (children, grandchildren, ...)."""
    out: List[int] = []
    stack = [pid]
    while stack:
        for child in children(stack.pop()):
            out.append(child)
            stack.append(child)
    return out


def peak_rss_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one live process, in KiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError(f"no VmHWM for pid {pid}")


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak RSS of ``pid`` and all its live descendants, in MB."""
    total = 0
    for member in [pid] + descendants(pid):
        try:
            total += peak_rss_kb(member)
        except OSError:
            continue  # exited between listing and reading
    return total / 1024.0


TERMINAL_KINDS = ("RunFinished", "RunFailed")
BODY_KINDS = ("RunProgress", "MetricSample")


def stream_errors(events: List[Tuple[str, dict]], cached: bool) -> List[str]:
    """Grammar violations in a batch of ``(kind, data)`` run events, per run.

    Every run must read ``RunStarted (RunProgress|MetricSample)*
    terminal``; with ``cached`` every run must be the two-event form
    ``RunStarted RunFinished(cached=true)``.
    """
    runs: Dict[str, List[Tuple[str, dict]]] = {}
    for kind, data in events:
        runs.setdefault(data.get("run_id", ""), []).append((kind, data))
    errors = []
    for run_id, stream in runs.items():
        kinds = [kind for kind, _ in stream]
        ok = (
            len(kinds) >= 2
            and kinds[0] == "RunStarted"
            and kinds[-1] in TERMINAL_KINDS
            and all(kind in BODY_KINDS for kind in kinds[1:-1])
        )
        if ok and cached:
            ok = kinds == ["RunStarted", "RunFinished"] and stream[-1][1].get("cached") is True
        if not ok:
            errors.append(f"{run_id}: {' '.join(kinds)}")
    return errors

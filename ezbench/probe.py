"""Hardware index: a pure-Python calibration probe, plus CPU pinning.

This module must import nothing from ``repro``: the index it produces
is the yardstick host-time metrics are rescaled by, so it cannot be
code under test. ``tests/test_probe.py`` checks that in a fresh
interpreter.

The probe runs a fixed mix of the operations the simulator's hot loops
are made of (heap push/pop, dict updates, method calls, float
arithmetic) and reports how long that took. The index is
``REFERENCE_PROBE_S / probe_s``: above 1 the CPU ran faster than the
reference, below 1 slower. A host time ``raw_s`` measured next to a
probe is reported as ``raw_s * index``, the time it would have taken at
the reference speed.
"""

from __future__ import annotations

import heapq
import os
import time

#: Loop iterations of one probe (about 40-60 ms on a 2-vCPU Xeon VM).
PROBE_ITERATIONS = 60_000

#: Probe time on the reference machine (the 2-vCPU Xeon VM the
#: benchmark was written on, median over quiet windows). Changing it
#: rescales every calibrated metric, so it is a constant, not a setting.
REFERENCE_PROBE_S = 0.040


class _Particle:
    __slots__ = ("gain", "offset")

    def __init__(self, gain: float, offset: float):
        self.gain = gain
        self.offset = offset

    def advance(self, x: float) -> float:
        return (self.gain * x + self.offset) % 1000.0


def _work(iterations: int) -> float:
    heap = []
    counts = {}
    particle = _Particle(1.0001, 0.5)
    acc = 0.0
    for i in range(iterations):
        heapq.heappush(heap, (acc % 97.0, i))
        if len(heap) > 64:
            heapq.heappop(heap)
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        acc = particle.advance(acc)
    return acc + len(counts)


def probe_s() -> float:
    """Seconds one probe took on the current CPU, right now."""
    started = time.perf_counter()
    _work(PROBE_ITERATIONS)
    return time.perf_counter() - started


def index_of(probe_seconds: float) -> float:
    """The hardware index a probe time implies (1.0 = reference speed)."""
    return REFERENCE_PROBE_S / probe_seconds


class Calibrator:
    """Probes taken between measured operations, and the rescaling.

    Call :meth:`probe` before the first operation and after every one;
    :meth:`bracket_index` is then the index of the operation between
    the last two probes, from their mean time. Probes never overlap
    measured work: the caller runs them only while the program is idle.
    """

    def __init__(self):
        self.probes = []

    def probe(self) -> float:
        seconds = probe_s()
        self.probes.append(seconds)
        return seconds

    def bracket_index(self) -> float:
        if len(self.probes) < 2:
            raise RuntimeError("rescaling needs a probe before and after")
        before, after = self.probes[-2], self.probes[-1]
        return index_of((before + after) / 2.0)


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it starts) to one allowed CPU.

    The highest-numbered allowed CPU is used; children inherit the
    affinity mask. Returns the CPU number.
    """
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    return cpu

"""Discrete-event simulation engine and the slot-synchronous core.

The engine is deliberately small: a monotonically increasing integer clock
(microsecond ticks), a binary-heap event queue, named deterministic RNG
streams, and a trace recorder. Everything above it (PHY, MAC, traffic,
EZ-flow) is built from scheduled callbacks.

:mod:`repro.sim.slotted` is the other execution core: one contention
phase per calibrated slot over the same connectivity maps. The meshgen
family runs a scenario on either, by its ``fidelity`` axis (see
:mod:`repro.experiments.tiers`).
"""

from repro.sim.engine import Engine, Event, SimTimeError
from repro.sim.rng import RngRegistry
from repro.sim.tracing import TraceRecorder, TimeSeries
from repro.sim.units import (
    US_PER_S,
    US_PER_MS,
    seconds,
    milliseconds,
    microseconds,
    to_seconds,
)

__all__ = [
    "Engine",
    "Event",
    "SimTimeError",
    "RngRegistry",
    "TraceRecorder",
    "TimeSeries",
    "US_PER_S",
    "US_PER_MS",
    "seconds",
    "milliseconds",
    "microseconds",
    "to_seconds",
]

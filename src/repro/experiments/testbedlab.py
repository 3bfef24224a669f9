"""Shared, memoised testbed simulations for the testbed experiments.

Figure 4 and Table 2 are different *views* of the same physical runs:
both simulate the 9-node testbed at the same seed and duration, with and
without EZ-flow — Figure 4 reads relay-buffer evolution, Table 2 reads
flow throughput/fairness. Running ``all`` used to execute the four
shared (flows, ezflow) combinations twice.

``testbed_simulation`` runs each unique (seed, flows, duration, ezflow)
combination once per process and caches the finished network plus a
buffer sampler covering every relay. The sampler is attached on *every*
path (cache hit or miss), so an experiment sees identical numbers
whether it triggered the run or reused it — which also keeps parallel
sweeps (separate worker processes, no shared cache) byte-identical to
serial ones.

The cache is a small LRU: one ``all`` pass needs six unique runs; the
cap only matters for long interactive sessions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Tuple

from repro.core import attach_ezflow
from repro.metrics.sampling import BufferSampler
from repro.sim.units import seconds
from repro.topology.builders import Network
from repro.topology.testbed import testbed_network

#: All relay nodes of the two testbed flows (Figure 3 topology).
RELAY_NODES: Tuple[str, ...] = ("N1", "N2", "N3", "N4", "N5", "N6")

_CACHE_CAP = 12


@dataclass
class TestbedRun:
    """One finished testbed simulation plus its relay-buffer sampler."""

    network: Network
    sampler: BufferSampler
    seed: int
    flows: Tuple[str, ...]
    duration_s: float
    ezflow: bool


_cache: "OrderedDict[Tuple, TestbedRun]" = OrderedDict()


def clear_cache() -> None:
    """Drop all memoised runs (tests; memory-sensitive callers)."""
    _cache.clear()


def testbed_simulation(
    seed: int,
    flows: Tuple[str, ...],
    duration_s: float,
    ezflow: bool,
    sample_interval_s: float = 1.0,
) -> TestbedRun:
    """The finished testbed run for this configuration (memoised).

    The buffer sampler is started before traffic sources, watching every
    relay node, and samples at ``sample_interval_s`` — callers that only
    need flow statistics simply ignore it. ``sample_interval_s`` is part
    of the cache key so a non-default sampling grid never aliases.
    """
    key = (int(seed), tuple(flows), float(duration_s), bool(ezflow), float(sample_interval_s))
    run = _cache.get(key)
    if run is not None:
        _cache.move_to_end(key)
        return run
    network = testbed_network(seed=seed, flows=tuple(flows))
    if ezflow:
        attach_ezflow(network.nodes)
    sampler = BufferSampler(network.engine, network.nodes, RELAY_NODES, sample_interval_s)
    sampler.start()
    network.run(until_us=seconds(duration_s))
    run = TestbedRun(
        network=network,
        sampler=sampler,
        seed=int(seed),
        flows=tuple(flows),
        duration_s=float(duration_s),
        ezflow=bool(ezflow),
    )
    _cache[key] = run
    while len(_cache) > _CACHE_CAP:
        _cache.popitem(last=False)
    return run

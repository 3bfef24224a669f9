"""Shared benchmark configuration.

Experiment benches run the real harnesses at reduced horizons (the
simulations are minutes of simulated time; pytest-benchmark runs them
once via ``pedantic``), then assert the paper's *shape* on the result.
A harness whose one result backs several figures (scenario 1 and 2)
is run once by a module-scoped fixture in its own file instead.
Microbenches (engine, BOE, winner process) use normal rounds.
"""

import pytest


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive harness exactly once and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once

"""Table 1 bench: isolated testbed link capacities, l2 bottleneck."""

from repro.experiments import table1


def test_bench_table1(benchmark, once):
    result = once(benchmark, table1.run, duration_s=60.0, warmup_s=10.0, seed=1)
    table = result.find_table("Table 1")
    measured = table.column("measured_kbps")
    paper = table.column("paper_kbps")

    assert len(measured) == 7
    # The bottleneck must be l2, as in the paper.
    assert measured.index(min(measured)) == 2
    # Each link within 25% of its calibration target.
    for got, want in zip(measured, paper):
        assert abs(got - want) / want < 0.25
    # Ordering shape: l2 clearly below every other link.
    others = [m for i, m in enumerate(measured) if i != 2]
    assert min(others) > 1.3 * measured[2]

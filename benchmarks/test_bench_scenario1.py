"""Scenario-1 benches: Figure 6 and Figure 8, ± EZ-flow.

Both read one ``scenario1.run`` result, computed once per module.
"""

import pytest

from repro.experiments import scenario1


@pytest.fixture(scope="module")
def result():
    return scenario1.run(time_scale=0.06, seed=5)


def test_bench_fig6(result):
    """Figure 6: scenario-1 throughput series, ± EZ-flow."""
    table = result.find_table("Scenario 1")

    rows = {
        (period.split()[0], ez, flow): thr
        for period, ez, flow, thr, delay, path_delay in table.rows
    }
    # Period 1 (F1 alone): EZ-flow raises throughput (paper: +20%).
    assert rows[("P1", "on", "F1")] > 1.1 * rows[("P1", "off", "F1")]
    # Period 3: the network re-adapts after F2 leaves.
    assert rows[("P3", "on", "F1")] > 1.1 * rows[("P3", "off", "F1")]
    # The throughput series for the figures exist and are non-trivial.
    for tag in ("std", "ez"):
        series = result.series[f"fig6.{tag}.F1.throughput_kbps"]
        assert len(series) > 10
        assert max(v for _, v in series) > 50.0


def test_bench_fig8(result):
    """Figure 8: scenario-1 contention-window adaptation."""
    cw_table = result.find_table("Figure 8")

    cw = {node: value for ez, node, successor, value in cw_table.rows}
    # The sources (branch heads) throttle themselves hardest; the trunk
    # relays stay at or near the minimum (paper: relays 2^4, source up
    # to 2^7..2^11).
    assert cw[12] >= 128        # F1's source
    assert cw[4] <= 64          # junction relay
    assert cw[3] <= 32 and cw[2] <= 32
    assert cw[12] > cw[4]
    # cw evolution series recorded for the figure.
    assert any(key.startswith("fig8.cw.node") for key in result.series)

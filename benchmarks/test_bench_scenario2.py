"""Scenario-2 benches: Figure 10, Figure 11 and Table 3, ± EZ-flow.

All three read one ``scenario2.run`` result, computed once per module.
"""

import pytest

from repro.experiments import scenario2


@pytest.fixture(scope="module")
def result():
    return scenario2.run(time_scale=0.05, seed=6)


def test_bench_fig10(result):
    """Figure 10: scenario-2 delay series, ± EZ-flow."""
    table = result.find_table("Table 3")

    path_delay = {
        (period, ez, flow): pd
        for period, ez, flow, paper, thr, sd, fi, pd in table.rows
    }
    # EZ-flow reduces F1's relay-path delay (paper: an order of
    # magnitude on the full schedule; the compressed schedule leaves
    # part of the transient inside the measurement window).
    assert path_delay[("P2", "on", "F1")] < 0.75 * path_delay[("P2", "off", "F1")]
    assert path_delay[("P3", "on", "F1")] < 0.5 * path_delay[("P3", "off", "F1")]
    # Delay series exist for each flow and configuration.
    for tag in ("std", "ez"):
        for flow in ("F1", "F2", "F3"):
            assert f"fig10.{tag}.{flow}.delay_s" in result.series


def test_bench_fig11(result):
    """Figure 11: scenario-2 contention-window adaptation."""
    cw_table = result.find_table("Figure 11")

    cw = {node: value for ez, node, successor, value in cw_table.rows}
    # Every flow's source throttles itself above its first relay's
    # window (paper: sources ratchet to 2^9..2^10, relays stay low).
    assert cw[0] > cw[1]
    assert cw[10] > cw[11]
    assert cw[19] > cw[20]
    assert cw[0] >= 128 and cw[10] >= 128 and cw[19] >= 128


def test_bench_table3(result):
    """Table 3: scenario-2 throughput, smoothness and fairness."""
    table = result.find_table("Table 3")

    rows = {
        (period, ez, flow): (thr, fi)
        for period, ez, flow, paper, thr, sd, fi, pd in table.rows
    }
    # Period 2 (all three flows): EZ-flow raises the aggregate
    # throughput (paper: +62%) and the fairness index (0.64 -> 0.80).
    agg_off = sum(rows[("P2", "off", f)][0] for f in ("F1", "F2", "F3"))
    agg_on = sum(rows[("P2", "on", f)][0] for f in ("F1", "F2", "F3"))
    assert agg_on > 1.3 * agg_off
    fi_off = float(rows[("P2", "off", "F1")][1])
    fi_on = float(rows[("P2", "on", "F1")][1])
    assert fi_on > fi_off
    # Period 3: F1 alone recovers high throughput (paper: 180 kb/s).
    assert rows[("P3", "on", "F1")][0] > 1.2 * rows[("P3", "off", "F1")][0]

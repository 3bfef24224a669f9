"""Tests for the experiment framework and fast smoke runs of harnesses."""

import pytest

from repro.experiments import experiment_ids, get_experiment
from repro.experiments import fig1, stability, table1
from repro.experiments.common import ExperimentResult, Table, sparkline, throughput_gain


class TestTable:
    def test_add_and_render(self):
        table = Table("T", ["a", "b"])
        table.add(1, 2.5)
        text = table.render()
        assert "T" in text
        assert "2.50" in text

    def test_row_width_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_column_extraction(self):
        table = Table("T", ["a", "b"])
        table.add(1, "x")
        table.add(2, "y")
        assert table.column("a") == [1, 2]
        with pytest.raises(ValueError):
            table.column("zz")


class TestExperimentResult:
    def test_table_creation_and_lookup(self):
        result = ExperimentResult("e", "desc")
        result.table("Alpha table", ["x"])
        assert result.find_table("Alpha").columns == ["x"]
        with pytest.raises(KeyError):
            result.find_table("missing")

    def test_render_includes_everything(self):
        result = ExperimentResult("e", "desc", parameters={"seed": 1})
        result.table("T", ["x"]).add(5)
        result.series["s"] = [(0.0, 1.0), (1.0, 2.0)]
        result.notes.append("hello")
        text = result.render()
        for fragment in ("e: desc", "seed=1", "T", "series s", "hello"):
            assert fragment in text


class TestHelpers:
    def test_sparkline_empty(self):
        assert sparkline([]) == "(empty)"

    def test_sparkline_constant(self):
        assert "constant" in sparkline([(0, 5.0), (1, 5.0)])

    def test_sparkline_varies(self):
        text = sparkline([(i, float(i)) for i in range(10)])
        assert "[0.00..9.00]" in text

    def test_throughput_gain(self):
        assert throughput_gain(100, 150) == pytest.approx(50.0)
        assert throughput_gain(0, 100) == 0.0


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = experiment_ids()
        for required in (
            "fig1",
            "table1",
            "fig4",
            "table2",
            "fig6",
            "fig7",
            "fig8",
            "fig10",
            "fig11",
            "table3",
            "table4",
            "stability",
        ):
            assert required in ids

    def test_aliases_resolve_to_shared_harness(self):
        assert get_experiment("fig6") is get_experiment("scenario1")
        assert get_experiment("table3") is get_experiment("scenario2")

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")


class TestSmokeRuns:
    """Fast, scaled-down executions of the cheap harnesses."""

    def test_fig1_smoke(self):
        result = fig1.run(duration_s=20.0, warmup_s=5.0, seed=1)
        table = result.find_table("Figure 1")
        assert len(table.rows) == 5  # 3-hop: 2 relays; 4-hop: 3 relays
        assert "3hop.node1.buffer" in result.series

    def test_table1_smoke(self):
        result = table1.run(duration_s=10.0, warmup_s=2.0, seed=1)
        table = result.find_table("Table 1")
        assert len(table.rows) == 7
        measured = table.column("measured_kbps")
        assert all(v > 0 for v in measured)

    def test_stability_smoke(self):
        result = stability.run(slots=5000, trials=50)
        table4 = result.find_table("Table 4")
        assert len(table4.rows) >= 14
        drift = result.find_table("Theorem 1")
        assert len(drift.rows) == 7
        walk = result.find_table("Random walk")
        assert len(walk.rows) == 2


class TestHarnessTraceExports:
    """Each paper harness records only the trace keys it reads."""

    CASES = (
        ("fig1", {"duration_s": 3.0, "warmup_s": 1.0}, ("buffer.",)),
        ("table1", {"duration_s": 2.0, "warmup_s": 1.0}, ()),
        ("fig4", {"duration_s": 3.0, "warmup_s": 1.0}, ("buffer.",)),
        ("table2", {"duration_s": 3.0, "warmup_s": 1.0}, ("buffer.",)),
        ("scenario1", {"time_scale": 0.002}, ("ezflow.",)),
        ("scenario2", {"time_scale": 0.002}, ("ezflow.",)),
        (
            "loadsweep",
            {"duration_s": 3.0, "warmup_s": 1.0, "loads_kbps": (100.0, 2000.0)},
            (),
        ),
        ("bidirectional", {"duration_s": 3.0, "warmup_s": 1.0, "windows": (4,)}, ()),
    )

    @pytest.mark.parametrize("spec_id,kwargs,prefixes", CASES, ids=[c[0] for c in CASES])
    def test_harness_records_only_what_it_reads(self, monkeypatch, spec_id, kwargs, prefixes):
        from repro.experiments import testbedlab
        from repro.sim.tracing import TraceRecorder
        import repro.topology.builders as builders

        made = []

        class CapturingRecorder(TraceRecorder):
            def __init__(self, exports=None):
                super().__init__(exports)
                made.append(self)

        monkeypatch.setattr(builders, "TraceRecorder", CapturingRecorder)
        testbedlab.clear_cache()
        try:
            get_experiment(spec_id)(**kwargs)
        finally:
            testbedlab.clear_cache()
        assert made
        for trace in made:
            keys = list(trace.counters) + list(trace.series)
            assert all(key.startswith(prefixes) for key in keys), keys
            assert not any(key.startswith(("mac.", "phy.")) for key in keys)
            assert not any(key.endswith(".occupancy") for key in trace.series)
            # No harness reads BOE's estimates, so none records them.
            assert not any(
                key.startswith("boe.est.") or key.endswith(".estimate")
                for key in trace.series
            ), keys
        if prefixes == ("buffer.",):
            assert all(
                any(len(trace.get(key)) for key in trace.series) for trace in made
            )

    def test_paper_builders_record_everything_by_default(self):
        from repro.sim.units import seconds
        from repro.topology.linear import linear_chain
        from repro.topology.scenario1 import scenario1_network
        from repro.topology.scenario2 import scenario2_network
        from repro.topology.testbed import testbed_network

        for network in (
            linear_chain(hops=3, seed=1),
            testbed_network(seed=1),
            scenario1_network(seed=1, time_scale=0.002),
            scenario2_network(seed=1, time_scale=0.002),
        ):
            network.run(until_us=seconds(1))
            assert network.trace.counter("mac.data_tx") > 0
            assert network.trace.counter("phy.tx_started") > 0
            assert any(key.endswith(".occupancy") for key in network.trace.series)

    def test_default_built_ezflow_chain_records_estimates(self):
        from repro.core import attach_ezflow
        from repro.sim.units import seconds
        from repro.topology.linear import linear_chain

        network = linear_chain(hops=4, seed=1)
        attach_ezflow(network.nodes)
        network.run(until_us=seconds(2))
        estimates = [key for key in network.trace.series if key.startswith("boe.est.")]
        assert estimates
        assert all(len(network.trace.get(key)) for key in estimates)

"""Tests for the experiment framework and fast smoke runs of harnesses."""

import pytest

from repro.experiments import fig1, stability, table1
from repro.experiments.common import ExperimentResult, Table, sparkline, throughput_gain
from repro.experiments.specs import get_spec, spec_ids


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
        ids = spec_ids()
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
        assert get_spec("fig6").resolve() is get_spec("scenario1").resolve()
        assert get_spec("table3").resolve() is get_spec("scenario2").resolve()

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            get_spec("fig99")


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


"""Tests for the result export tool."""

import csv
import os

from repro.experiments.common import ExperimentResult
from repro.experiments.export import export_result, table_to_markdown


def make_result():
    result = ExperimentResult("demo", "a demo result", parameters={"seed": 1})
    table = result.table("Demo table", ["a", "b"])
    table.add(1, 2.5)
    table.add(3, 4.0)
    result.series["thr/F1"] = [(0.0, 1.0), (1.0, 2.0)]
    result.notes.append("a note")
    return result


class TestMarkdown:
    def test_table_markdown_structure(self):
        text = table_to_markdown(make_result().tables[0])
        assert "### Demo table" in text
        assert "| a | b |" in text
        assert "| 1 | 2.500 |" in text


class TestExport:
    def test_writes_series_and_tables(self, tmp_path):
        target = export_result(make_result(), str(tmp_path))
        assert os.path.isdir(target)
        csv_path = os.path.join(target, "thr_F1.csv")
        with open(csv_path) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["x", "y"]
        assert rows[1] == ["0.0", "1.0"]
        with open(os.path.join(target, "tables.md")) as handle:
            text = handle.read()
        assert "Demo table" in text
        assert "> a note" in text
        assert "seed=1" in text


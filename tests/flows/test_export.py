"""Tests for CSV export of figure/table data."""

import csv

import pytest

from repro.cli import main
from repro.flows.export import (
    export_all,
    export_fraction_sweep,
    export_table1,
    export_table2,
    export_table3,
)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestExport:
    def test_table1(self, tmp_path):
        path = export_table1(tmp_path, ["bench", "fout"])
        rows = read_csv(path)
        assert rows[0][0] == "name"
        assert {row[0] for row in rows[1:]} == {"bench", "fout"}
        assert all(len(row) == 6 for row in rows)

    def test_fraction_sweep(self, tmp_path):
        path = export_fraction_sweep(tmp_path, ["bench"], [0.0, 1.0], "area")
        rows = read_csv(path)
        assert len(rows) == 3  # header + 2 fractions
        assert float(rows[1][2]) == pytest.approx(1.0)  # fraction 0 baseline

    def test_fraction_sweep_needs_the_baseline_fraction(self, tmp_path):
        with pytest.raises(ValueError, match="must include 0.0"):
            export_fraction_sweep(tmp_path, ["bench"], [0.5, 1.0], "area")
        assert not list(tmp_path.iterdir())

    def test_table2_roundtrip(self, tmp_path):
        """The exported CSV carries exactly the table2_rows measurements."""
        from repro.benchgen import mcnc_benchmark
        from repro.flows.sweep import table2_rows

        path = export_table2(tmp_path, ["bench"])
        rows = read_csv(path)
        assert rows[0] == [
            "name", "cf", "lcf_area_pct", "lcf_error_pct",
            "ranking_area_pct", "ranking_error_pct",
            "complete_area_pct", "complete_error_pct",
        ]
        data = dict(zip(rows[0], rows[1]))
        (row,) = table2_rows([mcnc_benchmark("bench")])
        assert data["name"] == "bench"
        assert float(data["cf"]) == pytest.approx(row.cf, abs=1e-4)
        assert float(data["lcf_area_pct"]) == pytest.approx(row.lcf_area, abs=0.01)
        assert float(data["complete_error_pct"]) == pytest.approx(
            row.complete_error, abs=0.01
        )

    def test_table3(self, tmp_path):
        path = export_table3(tmp_path, ["bench"])
        rows = read_csv(path)
        header = rows[0]
        data = dict(zip(header, rows[1]))
        assert float(data["exact_lo"]) <= float(data["conv_rate"]) + 1e-9

    def test_export_all(self, tmp_path):
        paths = export_all(tmp_path, names=["bench"], fractions=[0.0, 1.0])
        assert len(paths) == 4
        for path in paths:
            assert path.exists()
            assert len(read_csv(path)) >= 2

    def test_cli_export(self, tmp_path, capsys):
        assert main(["export", str(tmp_path), "--benchmarks", "bench"]) == 0
        out = capsys.readouterr().out
        assert out.count("wrote") == 4

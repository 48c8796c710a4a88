"""CSV export of regenerated figure/table data.

The benchmarks print human-readable tables; this module writes the same
data as machine-readable CSV so the figures can be re-plotted with any
external tool.  ``export_all`` regenerates every figure's data into a
directory (this is what ``repro export`` drives).
"""

from __future__ import annotations

import csv
import os
from pathlib import Path

from ..benchgen import TABLE1, mcnc_benchmark
from ..core.complexity import spec_complexity_factor, spec_expected_complexity_factor
from .experiment import relative_metrics
from .sweep import fraction_sweep, table2_rows, table3_rows

__all__ = ["export_table1", "export_fraction_sweep", "export_table2", "export_table3", "export_all"]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def export_table1(directory: Path, names: list[str]) -> Path:
    """Write the Table 1 properties of the chosen benchmarks."""
    rows = []
    for info in TABLE1:
        if info.name not in names:
            continue
        spec = mcnc_benchmark(info.name)
        rows.append([
            info.name, spec.num_inputs, spec.num_outputs,
            round(100 * spec.dc_fraction(), 2),
            round(spec_expected_complexity_factor(spec), 4),
            round(spec_complexity_factor(spec), 4),
        ])
    path = directory / "table1_properties.csv"
    _write_csv(path, ["name", "inputs", "outputs", "dc_percent", "expected_cf", "cf"], rows)
    return path


def export_fraction_sweep(
    directory: Path,
    names: list[str],
    fractions: list[float],
    objective: str = "power",
    jobs: int = 1,
) -> Path:
    """Write the Fig. 4/5 sweep data (normalised metrics per fraction).

    Each benchmark's rows are normalised to its fraction-0 point, so
    *fractions* must include 0.0.  With ``jobs > 1`` each benchmark's
    fractions fan out over the warm worker pool (see
    :func:`repro.flows.sweep.fraction_sweep`); results are bit-identical
    to the serial export.
    """
    if 0.0 not in fractions:
        raise ValueError(f"fractions must include 0.0, got {list(fractions)}")
    rows = []
    for name in names:
        spec = mcnc_benchmark(name)
        results = fraction_sweep(
            spec, list(fractions), objective=objective, jobs=jobs
        )
        baseline = results[fractions.index(0.0)]
        for fraction, result in zip(fractions, results):
            rel = relative_metrics(result, baseline)
            rows.append([
                name, fraction,
                round(rel["error_rate"], 5), round(rel["area"], 5),
                round(rel["delay"], 5), round(rel["power"], 5),
            ])
    path = directory / f"fig45_sweep_{objective}.csv"
    _write_csv(
        path,
        ["benchmark", "fraction", "error_norm", "area_norm", "delay_norm", "power_norm"],
        rows,
    )
    return path


def export_table2(directory: Path, names: list[str], jobs: int = 1) -> Path:
    """Write Table 2 rows (flow points on the warm pool with ``jobs > 1``)."""
    rows = []
    for row in table2_rows([mcnc_benchmark(name) for name in names], jobs=jobs):
        rows.append([
            row.benchmark, round(row.cf, 4),
            round(row.lcf_area, 2), round(row.lcf_error, 2),
            round(row.ranking_area, 2), round(row.ranking_error, 2),
            round(row.complete_area, 2), round(row.complete_error, 2),
        ])
    path = directory / "table2_assignment.csv"
    _write_csv(
        path,
        ["name", "cf", "lcf_area_pct", "lcf_error_pct",
         "ranking_area_pct", "ranking_error_pct",
         "complete_area_pct", "complete_error_pct"],
        rows,
    )
    return path


def export_table3(directory: Path, names: list[str], jobs: int = 1) -> Path:
    """Write Table 3 rows (flow points on the warm pool with ``jobs > 1``)."""
    rows = []
    for row in table3_rows([mcnc_benchmark(name) for name in names], jobs=jobs):
        rows.append([
            row.benchmark, row.gates,
            round(row.exact.lo, 5), round(row.exact.hi, 5),
            round(row.signal.lo, 5), round(row.signal.hi, 5),
            round(row.border.lo, 5), round(row.border.hi, 5),
            round(row.conventional_rate, 5), round(row.conventional_diff_pct, 2),
            round(row.lcf_rate, 5), round(row.lcf_diff_pct, 2),
        ])
    path = directory / "table3_estimates.csv"
    _write_csv(
        path,
        ["name", "gates", "exact_lo", "exact_hi", "signal_lo", "signal_hi",
         "border_lo", "border_hi", "conv_rate", "conv_diff_pct",
         "lcf_rate", "lcf_diff_pct"],
        rows,
    )
    return path


def export_all(
    directory: str | os.PathLike,
    *,
    names: list[str] | None = None,
    fractions: list[float] | None = None,
    jobs: int = 1,
) -> list[Path]:
    """Regenerate all figure/table CSVs into *directory*.

    ``jobs > 1`` fans the flow points of the sweep and of both tables out
    over the warm worker pool; the CSVs are bit-identical either way.
    """
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    names = names or ["bench", "fout", "p3", "test4", "exam"]
    fractions = fractions or [0.0, 0.25, 0.5, 0.75, 1.0]
    return [
        export_table1(target, names),
        export_fraction_sweep(target, names, fractions, jobs=jobs),
        export_table2(target, names, jobs=jobs),
        export_table3(target, names, jobs=jobs),
    ]

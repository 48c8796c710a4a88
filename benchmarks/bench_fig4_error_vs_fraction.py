"""F4 — Fig. 4: normalised error rate vs fraction of DCs assigned.

Runs the ranking-based sweep over the benchmark roster and normalises each
benchmark's error rate by its conventional (fraction-0) implementation.
The paper's shape: resilience improves monotonically (on average) as more
DCs are assigned for reliability.
"""

import numpy as np
import pytest

from repro.benchgen import mcnc_benchmark
from repro.flows import format_table, fraction_sweep

from conftest import emit, fractions, roster


def _sweep():
    grid = fractions()
    rows = {}
    for name in roster():
        results = fraction_sweep(mcnc_benchmark(name), grid, objective="power")
        baseline = results[0]  # the grid starts at fraction 0
        rows[name] = [
            result.error_rate / baseline.error_rate
            if baseline.error_rate
            else 1.0
            for result in results
        ]
    return grid, rows


def test_fig4_error_vs_fraction(benchmark):
    grid, rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    table_rows = [[name] + [round(v, 3) for v in series] for name, series in rows.items()]
    mean_series = np.mean(np.array(list(rows.values())), axis=0)
    table_rows.append(["MEAN"] + [round(float(v), 3) for v in mean_series])
    table = format_table(["benchmark"] + [f"f={f}" for f in grid], table_rows)
    emit("Fig. 4: normalised error rate vs fraction assigned (power-opt)", table)

    # Shape: the mean normalised error rate decreases with the fraction,
    # and full assignment is the most resilient point.
    assert float(mean_series[-1]) < float(mean_series[0]) - 0.05
    assert float(mean_series[-1]) == pytest.approx(min(map(float, mean_series)), abs=0.02)

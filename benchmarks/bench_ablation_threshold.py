"""A1 — Ablation: the LC^f threshold knob.

Sweeps the complexity-factor-based assignment threshold across and beyond
the paper's recommended 0.45-0.65 window on a subset of benchmarks.  The
paper's claim: low thresholds optimise for performance (few DCs taken from
the area optimiser), high thresholds for reliability.
"""

import numpy as np
import pytest

from repro.benchgen import mcnc_benchmark
from repro.flows import format_table, relative_metrics, run_points

from conftest import emit, full_mode

THRESHOLDS = [0.30, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.75]


def _subjects():
    return ["bench", "fout", "test4", "exam"] if not full_mode() else [
        "bench", "fout", "p3", "p1", "exp", "test4", "ex1010", "exam",
    ]


def _sweep():
    data = {}
    for name in _subjects():
        spec = mcnc_benchmark(name)
        baseline, *results = run_points(
            [(spec, {"policy": "conventional"})]
            + [(spec, {"policy": "cfactor", "threshold": t}) for t in THRESHOLDS],
            objective="area",
        )
        data[name] = [
            (r.fraction_assigned, relative_metrics(r, baseline)) for r in results
        ]
    return data


def test_threshold_ablation():
    data = _sweep()
    rows = []
    for name, series in data.items():
        for threshold, (fraction, rel) in zip(THRESHOLDS, series):
            rows.append([
                name, threshold, round(fraction, 2),
                round(rel["error_improvement_pct"], 1),
                round(rel["area_improvement_pct"], 1),
            ])
    table = format_table(
        ["benchmark", "threshold", "fraction", "dErr %", "dArea %"], rows
    )
    emit("Ablation: LC^f threshold sweep", table)

    for name, series in data.items():
        fractions = [fraction for fraction, _ in series]
        # The knob is monotone: higher threshold -> more DCs assigned.
        assert fractions == sorted(fractions), name
        errors = [rel["error_improvement_pct"] for _, rel in series]
        # Reliability at the top of the window is at least as good as at
        # the bottom (the paper's "high threshold optimises reliability").
        assert errors[-1] >= errors[0] - 1.0, name

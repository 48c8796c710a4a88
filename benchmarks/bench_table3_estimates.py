"""T3 — Table 3: min-max reliability estimates.

For every roster benchmark: the exact achievable error band, the
signal-probability (Gaussian) estimate, the border-count (Poisson)
estimate, plus the rates achieved by conventional and LC^f-based
assignment and their distance above the exact minimum.

The paper's shape: signal-based estimates consistently overshoot the exact
band; border-based estimates track/contain it; the LC^f rates sit at or
below the conventional rates.
"""

import numpy as np
import pytest

from repro.benchgen import mcnc_benchmark
from repro.flows import format_table, table3_rows

from conftest import emit, roster


def _build():
    return table3_rows([mcnc_benchmark(name) for name in roster()])


def test_table3():
    rows = _build()
    table = format_table(
        ["name", "gates", "exact lo", "exact hi", "sig lo", "sig hi",
         "brd lo", "brd hi", "conv", "conv d%", "LCf", "LCf d%"],
        [
            [r.benchmark, r.gates,
             round(r.exact.lo, 3), round(r.exact.hi, 3),
             round(r.signal.lo, 3), round(r.signal.hi, 3),
             round(r.border.lo, 3), round(r.border.hi, 3),
             round(r.conventional_rate, 3), round(r.conventional_diff_pct, 1),
             round(r.lcf_rate, 3), round(r.lcf_diff_pct, 1)]
            for r in rows
        ],
    )
    emit("Table 3: min-max reliability estimates", table)

    overshoots = 0
    brackets = 0
    for r in rows:
        # Achieved rates live inside the exact band.
        assert r.exact.lo - 1e-9 <= r.conventional_rate <= r.exact.hi + 1e-9
        assert r.exact.lo - 1e-9 <= r.lcf_rate <= r.exact.hi + 1e-9
        if r.signal.lo > r.exact.lo and r.signal.hi > r.exact.hi:
            overshoots += 1
        slack = 1.5 / 8  # one neighbour of slack, as in the unit tests
        if r.border.lo <= r.exact.lo + slack and r.border.hi >= r.exact.hi - slack:
            brackets += 1
    # Paper: signal-based "consistently overshoots"; border-based
    # "consistently contains".  Require a strong majority of rows.
    assert overshoots >= 0.75 * len(rows)
    assert brackets >= 0.75 * len(rows)
    # Mean achieved rates: LC^f at or below conventional.
    mean_conv = float(np.mean([r.conventional_diff_pct for r in rows]))
    mean_lcf = float(np.mean([r.lcf_diff_pct for r in rows]))
    assert mean_lcf <= mean_conv + 2.0

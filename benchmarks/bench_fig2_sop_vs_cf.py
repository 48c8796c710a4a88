"""F2 — Fig. 2: minimal SOP size vs complexity factor.

Generates 10-input single-output fully specified synthetic functions
across the complexity-factor range and minimises each with ESPRESSO.  The
paper's shape: implicant counts approach ~512 at low C^f and decline
smoothly toward 0 as C^f grows.
"""

import numpy as np
import pytest

from repro.benchgen.synthetic import generate_output
from repro.core.complexity import complexity_factor
from repro.core.truthtable import ON
from repro.espresso.cube import Cover
from repro.espresso.minimize import espresso
from repro.flows import format_table

from conftest import emit, full_mode

NUM_INPUTS = 10


def _sweep():
    targets = np.linspace(0.08, 0.92, 15 if full_mode() else 9)
    seeds_per_target = 3 if full_mode() else 1
    points = []
    for target in targets:
        for seed in range(seeds_per_target):
            rng = np.random.default_rng(1000 + int(target * 1000) + seed)
            phases = generate_output(
                NUM_INPUTS, float(target), 0.5, 0.5, rng, tolerance=0.03
            )
            cf = float(complexity_factor(phases))
            on = Cover.from_minterms(NUM_INPUTS, np.flatnonzero(phases == ON))
            cover = espresso(on)
            points.append((cf, cover.num_cubes))
    points.sort()
    return points


def test_fig2_sop_size_vs_complexity():
    points = _sweep()
    table = format_table(
        ["C^f", "minimal SOP implicants"],
        [[round(cf, 3), size] for cf, size in points],
    )
    emit("Fig. 2: SOP size vs complexity factor (10-input functions)", table)

    cfs = np.array([p[0] for p in points])
    sizes = np.array([p[1] for p in points], dtype=float)
    # Shape checks: strong negative correlation, low-C^f sizes near the
    # 512-implicant ceiling, high-C^f sizes collapsing.
    correlation = float(np.corrcoef(cfs, sizes)[0, 1])
    assert correlation < -0.8, f"SOP size should fall with C^f (r={correlation:.2f})"
    assert sizes[cfs < 0.2].mean() > 300
    assert sizes[cfs > 0.8].mean() < 100

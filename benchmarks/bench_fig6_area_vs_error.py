"""F6 — Fig. 6: area vs error-rate trajectories per complexity family.

Synthetic families with designated complexity factors (60 % DC), swept
through the ranking fractions; each family traces a trajectory in the
(normalised error, normalised area) plane.  The paper's shape:

(i)   high-C^f families have the largest error-rate range *and* the
      largest area overheads;
(ii)  lower-C^f families buy reliability much more cheaply;
(iii) the cheapest families approach (or achieve) simultaneous
      improvements.
"""

import numpy as np
import pytest

from repro.flows import family_tradeoff, format_table

from conftest import emit, full_mode


def _families():
    if full_mode():
        return dict(
            num_inputs=11,
            num_outputs=11,
            complexity_factors=[0.45, 0.55, 0.65, 0.75, 0.85],
            functions_per_family=10,
            fractions=[0.0, 0.25, 0.5, 0.75, 1.0],
        )
    return dict(
        num_inputs=9,
        num_outputs=5,
        complexity_factors=[0.45, 0.55, 0.68],
        functions_per_family=3,
        fractions=[0.0, 0.5, 1.0],
    )


def _sweep():
    return family_tradeoff(dc_fraction=0.6, objective="power", seed=6, **_families())


def test_fig6_area_vs_error():
    trajectories = _sweep()
    rows = []
    for cf, points in sorted(trajectories.items()):
        for point in points:
            rows.append([
                f"Cf={cf:.2f}",
                point["fraction"],
                round(point["error_rate"], 3),
                round(point["area"], 3),
            ])
    table = format_table(["family", "fraction", "error (norm)", "area (norm)"], rows)
    emit("Fig. 6: area vs error-rate trajectories by C^f family", table)

    cfs = sorted(trajectories)
    assert len(cfs) >= 2, "too many degenerate families to compare"
    final = {cf: trajectories[cf][-1] for cf in cfs}
    # (i) the highest-C^f family pays the largest area overhead at full
    # assignment; (ii) the lowest-C^f family pays the least.
    assert final[cfs[-1]]["area"] >= final[cfs[0]]["area"] - 0.05
    # Reliability improves for every family at full assignment.
    for cf in cfs:
        assert final[cf]["error_rate"] < 1.0

"""T1 — Table 1: published and synthetic benchmark properties.

Regenerates the %DC, E[C^f] and C^f columns for every benchmark stand-in
and checks them against the published values.
"""

import pytest

from repro.benchgen import TABLE1, mcnc_benchmark
from repro.core.complexity import spec_complexity_factor, spec_expected_complexity_factor
from repro.flows import format_table

from conftest import emit


def _build_table():
    rows = []
    for info in TABLE1:
        spec = mcnc_benchmark(info.name)
        rows.append([
            info.name,
            spec.num_inputs,
            spec.num_outputs,
            round(100 * spec.dc_fraction(), 1),
            round(spec_expected_complexity_factor(spec), 3),
            round(spec_complexity_factor(spec), 3),
            info.dc_percent,
            info.expected_cf,
            info.cf,
        ])
    return rows


def test_table1_properties():
    rows = _build_table()
    table = format_table(
        ["name", "in", "out", "%DC", "E[Cf]", "Cf", "paper %DC", "paper E", "paper Cf"],
        rows,
    )
    emit("Table 1: benchmark properties (measured vs paper)", table)
    for row in rows:
        name, _, _, dc, ecf, cf, p_dc, p_e, p_cf = row
        assert abs(dc - p_dc) <= 2.0, f"{name}: %DC off"
        assert abs(ecf - p_e) <= 0.02, f"{name}: E[C^f] off"
        assert abs(cf - p_cf) <= 0.02, f"{name}: C^f off"

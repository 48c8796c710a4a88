"""A2 — Ablation: cross-validation with the AIG (resyn2rs) optimiser.

The paper re-runs its benchmarks through ABC's ``resyn2rs`` to show that
the reliability/overhead results are not an artefact of one synthesis
tool.  This benchmark pushes conventional vs complete assignment through
both of this package's independent optimisers — the SOP/kernel flow and
the AIG flow — and checks that they agree on the *direction* of the area
effect.
"""

import numpy as np
import pytest

from repro.benchgen import mcnc_benchmark
from repro.core.ranking import complete_assignment
from repro.espresso.minimize import minimize_spec
from repro.flows import format_table
from repro.synth.aig import aig_from_network, resyn2rs
from repro.synth.compile_ import compile_network, compile_spec
from repro.synth.network import LogicNetwork

from conftest import emit, full_mode


def _subjects():
    return ["bench", "fout", "p3", "exam"] if not full_mode() else [
        "bench", "fout", "p3", "p1", "exp", "test4", "exam", "t4", "random3",
    ]


def _aig_flow_area(spec, source):
    minimized = minimize_spec(spec)
    network = LogicNetwork.from_covers(
        list(spec.input_names), minimized.covers, list(spec.output_names)
    )
    optimized = resyn2rs(aig_from_network(network))
    result = compile_network(
        optimized.to_network(), spec, objective="area", optimize=False
    )
    return result.area


def _compare():
    rows = []
    for name in _subjects():
        spec = mcnc_benchmark(name)
        complete = complete_assignment(spec).apply(spec)
        dc_conv = compile_spec(spec, objective="area").area
        dc_complete = compile_spec(complete, objective="area", source_spec=spec).area
        aig_conv = _aig_flow_area(spec, spec)
        aig_complete = _aig_flow_area(complete, spec)
        rows.append({
            "name": name,
            "dc_ratio": dc_complete / dc_conv if dc_conv else 1.0,
            "aig_ratio": aig_complete / aig_conv if aig_conv else 1.0,
        })
    return rows


def test_optimizer_cross_validation():
    rows = _compare()
    table = format_table(
        ["benchmark", "complete/conv area (SOP flow)", "complete/conv area (AIG flow)"],
        [[r["name"], round(r["dc_ratio"], 3), round(r["aig_ratio"], 3)] for r in rows],
    )
    emit("Ablation: optimizer cross-validation (SOP vs AIG flow)", table)

    agree = sum(
        1 for r in rows
        if (r["dc_ratio"] >= 1.0) == (r["aig_ratio"] >= 1.0)
        or abs(r["dc_ratio"] - r["aig_ratio"]) < 0.15
    )
    # The two optimisers must agree on the direction of the area effect on
    # (almost) every benchmark — the paper's "similar results" with ABC.
    assert agree >= len(rows) - 1

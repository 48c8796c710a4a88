"""A4 — Ablation: exhaustive vs simulation+SAT flexibility extraction.

The paper's Sec. 4 pipeline needs per-node don't cares; ref. [16] computes
them with simulation + satisfiability instead of enumeration.  This
benchmark runs both engines over every node of optimised multi-level
circuits and checks they extract *identical* flexibility, reporting the
DC volume each circuit exposes.
"""

import numpy as np
import pytest

from repro.benchgen.synthetic import generate_spec
from repro.core.truthtable import DC
from repro.espresso.minimize import minimize_spec
from repro.flows import format_table
from repro.synth.flexibility import node_flexibility_sat
from repro.synth.network import LogicNetwork
from repro.synth.odc import node_flexibility
from repro.synth.optimize import optimize_network

from conftest import emit, full_mode


def _subjects():
    count = 4 if full_mode() else 2
    return [
        generate_spec(f"flex{i}", 7, 3, target_cf=0.5 + 0.04 * i,
                      dc_fraction=0.5, seed=80 + i)
        for i in range(count)
    ]


def _run():
    rows = []
    for spec in _subjects():
        minimized = minimize_spec(spec)
        network = LogicNetwork.from_covers(
            list(spec.input_names), minimized.covers, list(spec.output_names)
        )
        optimize_network(network)
        nodes = 0
        agreements = 0
        total_dc = 0
        for name in list(network.nodes):
            if len(network.nodes[name].fanins) > 8:
                continue
            nodes += 1
            exhaustive = node_flexibility(network, name)
            via_sat = node_flexibility_sat(
                network, name, simulation_vectors=64,
                rng=np.random.default_rng(nodes),
            )
            if bool(np.array_equal(exhaustive.phases, via_sat.phases)):
                agreements += 1
            total_dc += int(np.count_nonzero(exhaustive.phases == DC))
        rows.append({
            "name": spec.name,
            "nodes": nodes,
            "agree": agreements,
            "dc": total_dc,
        })
    return rows


def test_flexibility_engines_agree():
    rows = _run()
    table = format_table(
        ["circuit", "nodes checked", "engines agree", "local DC entries"],
        [[r["name"], r["nodes"], r["agree"], r["dc"]] for r in rows],
    )
    emit("Ablation: exhaustive vs simulation+SAT flexibility", table)
    for r in rows:
        assert r["agree"] == r["nodes"], f"{r['name']}: engines disagree"
        assert r["nodes"] > 0

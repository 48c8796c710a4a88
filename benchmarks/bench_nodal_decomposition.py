"""A3 — Sec. 4 extension: nodal decomposition / internal-DC reassignment.

Builds multi-level networks, extracts per-node satisfiability and
observability DCs, reassigns them with the LC^f policy and measures the
internal error-masking improvement.  The paper's claim: working on
extracted internal DC sets increases the rate of logical masking within
the circuit while leaving the primary outputs untouched.
"""

import numpy as np
import pytest

from repro.benchgen.synthetic import generate_spec
from repro.espresso.minimize import minimize_spec
from repro.flows import format_table
from repro.synth.network import LogicNetwork
from repro.synth.odc import reassign_internal_dcs
from repro.synth.optimize import optimize_network
from repro.synth.renode import renode

from conftest import emit, full_mode


def _subjects():
    # Mid/low-C^f circuits have enough extracted flexibility for the
    # technique to act on (high-C^f circuits at this size degenerate to a
    # handful of nodes with almost no internal DCs).
    count = 6 if full_mode() else 3
    return [
        generate_spec(f"nodal{i}", 8, 5, target_cf=0.45 + 0.02 * i,
                      dc_fraction=0.5, seed=60 + i)
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
        for variant, net in (
            ("as-optimised", network),
            ("renode k=5", renode(network, 5)),
        ):
            reference = net.output_table().copy()
            report = reassign_internal_dcs(net, policy="cfactor", threshold=1.0)
            assert bool(np.array_equal(net.output_table(), reference))
            rows.append({
                "name": f"{spec.name} ({variant})",
                "nodes": len(net.nodes),
                "assigned": report.dc_entries_assigned,
                "before": report.error_rate_before,
                "after": report.error_rate_after,
            })
    return rows


def test_nodal_decomposition():
    rows = _run()
    table = format_table(
        ["circuit", "nodes", "internal DCs assigned",
         "internal error before", "after"],
        [[r["name"], r["nodes"], r["assigned"],
          round(r["before"], 4), round(r["after"], 4)] for r in rows],
    )
    emit("Sec. 4 extension: internal-DC reassignment", table)

    deltas = [r["before"] - r["after"] for r in rows]
    # Masking must improve (or at worst stay flat) on average, and the
    # reassignment must actually have decided internal DCs.
    assert float(np.mean(deltas)) >= -0.005
    assert sum(r["assigned"] for r in rows) > 0

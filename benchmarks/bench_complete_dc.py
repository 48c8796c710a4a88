"""A4 — SAT-complete internal don't-cares vs the window-limited extractor.

Runs the ``complete_dc`` machinery (simulation-propose / SAT-confirm,
see ``repro/synth/flexibility.py``) over multi-level circuits and
compares the confirmed DC minterm count against the window-limited
extractor at depth 1.  The claims under test: the complete extractor
confirms **strictly more** DC minterms than the windowed one, and the
reassignment never changes a primary output.

A second experiment runs the engine in its wide mode (more than 20 PIs)
on a disjoint union of four independent cones.  Its DC counts must
equal the values recorded before the engine's unbatched query plan was
removed, and two runs must rewrite the network identically.

On the default three-circuit run the per-circuit DC counts and the
``sat.*`` query counters are pinned as goldens: the solver's models pick
the refuting vectors, so these counts move with any change to its
search.  Nothing here is timed: the complete-DC stage's timing comes
from perfbench's ``complete-dc`` workload.
"""

import numpy as np

from repro.benchgen.synthetic import generate_spec
from repro.espresso.minimize import minimize_spec
from repro.flows import format_table
from repro.obs import metrics as obs_metrics
from repro.synth.flexibility import reassign_complete_dcs
from repro.synth.network import LogicNetwork
from repro.synth.optimize import optimize_network

from conftest import emit, full_mode

WINDOW_LEVELS = 1
"""Baseline window depth.  Depth 1 is the cheapest sound extractor; the
complete extractor must dominate it on every circuit."""

SAT_COUNTERS = (
    "sat.queries", "sat.confirmations", "sat.refutations", "sat.fallbacks",
    "sat.cex_recycled",
)

CIRCUIT_GOLDEN_DCS = {
    "nodal0": (3475, 3425),
    "nodal1": (1602, 1589),
    "nodal2": (2667, 2665),
}
"""``(complete, window)`` DC minterms per circuit of the default run."""

SAT_GOLDEN_COUNTS = {
    "sat.queries": 514, "sat.confirmations": 2858, "sat.refutations": 279,
    "sat.fallbacks": 10, "sat.cex_recycled": 238,
}
"""The ``SAT_COUNTERS`` totals over the default three-circuit run."""

PERF_GOLDEN_COUNTS = (7205, 0, 56, 7008)
"""``(complete DCs, window DCs, nodes changed, DC entries assigned)`` on
the wide subject, recorded from the batched engine and checked equal to
the unbatched one-query-per-solve plan before that plan was removed."""


def _subjects():
    count = 6 if full_mode() else 3
    return [
        generate_spec(f"nodal{i}", 8, 5, target_cf=0.45 + 0.02 * i,
                      dc_fraction=0.5, seed=60 + i)
        for i in range(count)
    ]


def _build_network(spec):
    minimized = minimize_spec(spec)
    network = LogicNetwork.from_covers(
        list(spec.input_names), minimized.covers, list(spec.output_names)
    )
    optimize_network(network)
    return network


def _run():
    counters_before = {n: obs_metrics.counter(n).value for n in SAT_COUNTERS}
    rows = []
    for spec in _subjects():
        network = _build_network(spec)
        reference = network.output_table().copy()
        report = reassign_complete_dcs(
            network, policy="cfactor", threshold=1.0,
            window_levels=WINDOW_LEVELS,
            rng=np.random.default_rng(7),
        )
        assert bool(np.array_equal(network.output_table(), reference))
        rows.append({
            "name": spec.name,
            "nodes": report.nodes_considered,
            "complete": report.complete_dc_minterms,
            "window": report.window_dc_minterms,
            "delta": report.dc_delta,
            "fallback": report.sat_fallback_nodes,
        })
    sat = {
        n: obs_metrics.counter(n).value - counters_before[n]
        for n in SAT_COUNTERS
    }
    return rows, sat


def test_complete_dc_dominates_window():
    rows, sat = _run()
    table = format_table(
        ["circuit", "nodes", "complete DCs", f"window-{WINDOW_LEVELS} DCs",
         "delta", "fallback nodes"],
        [[r["name"], r["nodes"], r["complete"], r["window"], r["delta"],
          r["fallback"]]
         for r in rows],
    )
    emit("SAT-complete DCs vs window-limited extractor", table)

    # The complete extractor must dominate the window baseline in
    # aggregate and strictly beat it somewhere: the whole point of
    # paying for SAT is flexibility the window cannot see.
    assert all(r["delta"] >= 0 for r in rows)
    assert sum(r["delta"] for r in rows) > 0
    # The SAT path actually ran (queries issued, some confirmed).
    assert sat["sat.queries"] > 0
    assert sat["sat.confirmations"] > 0

    counts = {r["name"]: (r["complete"], r["window"]) for r in rows}
    for name, golden in CIRCUIT_GOLDEN_DCS.items():
        assert counts[name] == golden, (name, counts[name])
    if not full_mode():
        assert sat == SAT_GOLDEN_COUNTS, sat


# --------------------------------------------------------- wide mode

def _wide_subject():
    """Disjoint union of four independent 8-PI cones.

    32 PIs total, so the stage runs in its wide-network mode (sampled
    simulation + final SAT miter): a representative SAT-bound load.
    """
    cones = [
        _build_network(
            generate_spec(f"cone{i}", 8, 4, target_cf=0.5,
                          dc_fraction=0.4, seed=90 + i)
        )
        for i in range(4)
    ]
    pis = [f"c{i}_{p}" for i, net in enumerate(cones)
           for p in net.primary_inputs]
    union = LogicNetwork(pis)
    for i, net in enumerate(cones):
        rename = {p: f"c{i}_{p}" for p in net.primary_inputs}
        for name in net.topological_order():
            node = net.nodes[name]
            new_name = f"c{i}_{name}"
            rename[name] = new_name
            union.add_node(
                new_name, [rename[f] for f in node.fanins], node.cover
            )
        for out, sig in net.outputs.items():
            union.set_output(f"c{i}_{out}", rename[sig])
    return union


def _wide_run():
    """One reassignment over the wide subject: its counts and rewrite.

    ``simulation_vectors=64`` leaves real work for SAT (256 proposes
    most candidates away) and ``query_budget=4096`` admits every node,
    so none falls back.
    """
    network = _wide_subject()
    report = reassign_complete_dcs(
        network, policy="cfactor", threshold=1.0,
        window_levels=WINDOW_LEVELS, simulation_vectors=64,
        query_budget=4096, rng=np.random.default_rng(7),
    )
    counts = (report.complete_dc_minterms, report.window_dc_minterms,
              report.nodes_changed, report.dc_entries_assigned)
    snapshot = {
        name: (tuple(node.fanins), node.cover.cubes.tobytes())
        for name, node in network.nodes.items()
    }
    return counts, snapshot


def test_complete_dc_wide_mode_golden():
    counts, snapshot = _wide_run()
    assert counts == PERF_GOLDEN_COUNTS
    assert _wide_run() == (counts, snapshot)  # a second run rewrites identically

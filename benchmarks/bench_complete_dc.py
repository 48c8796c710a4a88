"""A4 — SAT-complete internal don't-cares vs the window-limited extractor.

Runs the ``complete_dc`` machinery (simulation-propose / SAT-confirm,
see ``repro/synth/flexibility.py``) over multi-level circuits and
compares the confirmed DC minterm count against the window-limited
extractor at depth 1.  The claims under test: the complete extractor
confirms **strictly more** DC minterms than the windowed one, and the
reassignment never changes a primary output.

A second experiment times the flexibility engine on a SAT-bound
subject, a disjoint union of four independent cones.  Its DC counts must
equal the values recorded before the engine's unbatched query plan was
removed, and two runs must rewrite the network identically.

Results (DC counts, deltas, per-circuit wall/solver seconds and the
``sat.*`` query counters) persist to ``BENCH_complete_dc.json`` at the
repo root so the trajectory is tracked across PRs.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.benchgen.synthetic import generate_spec
from repro.espresso.minimize import minimize_spec
from repro.flows import format_table
from repro.obs import metrics as obs_metrics
from repro.synth.flexibility import reassign_complete_dcs
from repro.synth.network import LogicNetwork
from repro.synth.optimize import optimize_network

from conftest import emit, full_mode

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_complete_dc.json"

WINDOW_LEVELS = 1
"""Baseline window depth.  Depth 1 is the cheapest sound extractor; the
complete extractor must dominate it on every circuit."""

SAT_COUNTERS = (
    "sat.queries", "sat.confirmations", "sat.refutations", "sat.fallbacks",
    "sat.cex_recycled",
)

PERF_GOLDEN_COUNTS = (7205, 0, 56, 7008)
"""``_counts`` on the perf subject, recorded from the batched engine and
checked equal to the unbatched one-query-per-solve plan before that plan
was removed."""


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


def _update_bench_file(**sections):
    """Merge *sections* into BENCH_complete_dc.json (tests are
    independent; each owns its keys)."""
    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data.update(sections)
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _run():
    counters_before = {n: obs_metrics.counter(n).value for n in SAT_COUNTERS}
    rows = []
    for spec in _subjects():
        network = _build_network(spec)
        reference = network.output_table().copy()
        queries_before = obs_metrics.counter("sat.queries").value
        solver_before = obs_metrics.counter("sat.solve_seconds").value
        started = time.perf_counter()
        report = reassign_complete_dcs(
            network, policy="cfactor", threshold=1.0,
            window_levels=WINDOW_LEVELS,
            rng=np.random.default_rng(7),
        )
        wall = time.perf_counter() - started
        solver = obs_metrics.counter("sat.solve_seconds").value - solver_before
        queries = obs_metrics.counter("sat.queries").value - queries_before
        assert bool(np.array_equal(network.output_table(), reference))
        rows.append({
            "name": spec.name,
            "nodes": report.nodes_considered,
            "complete": report.complete_dc_minterms,
            "window": report.window_dc_minterms,
            "delta": report.dc_delta,
            "fallback": report.sat_fallback_nodes,
            "before": report.error_rate_before,
            "after": report.error_rate_after,
            "wall_seconds": round(wall, 3),
            "solver_seconds": round(solver, 3),
            "queries_per_second": round(queries / wall, 1) if wall else None,
        })
    sat = {
        n: obs_metrics.counter(n).value - counters_before[n]
        for n in SAT_COUNTERS
    }
    return rows, sat


def test_complete_dc_dominates_window(benchmark):
    rows, sat = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = format_table(
        ["circuit", "nodes", "complete DCs", f"window-{WINDOW_LEVELS} DCs",
         "delta", "fallback nodes", "wall s", "solver s", "queries/s"],
        [[r["name"], r["nodes"], r["complete"], r["window"], r["delta"],
          r["fallback"], r["wall_seconds"], r["solver_seconds"],
          r["queries_per_second"]]
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

    _update_bench_file(
        window_levels=WINDOW_LEVELS,
        circuits=rows,
        sat_counters=sat,
        total_complete_dc_minterms=sum(r["complete"] for r in rows),
        total_window_dc_minterms=sum(r["window"] for r in rows),
        total_dc_delta=sum(r["delta"] for r in rows),
    )


# --------------------------------------------------------------- perf

def _perf_subject():
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


def _perf_run():
    """One reassignment over the perf subject; timing + identity data.

    ``simulation_vectors=64`` leaves real work for SAT (256 proposes
    most candidates away) and ``query_budget=4096`` admits every node
    (fallback nodes would burn conflict budget and blur the timing).
    """
    network = _perf_subject()
    solver_before = obs_metrics.counter("sat.solve_seconds").value
    started = time.perf_counter()
    report = reassign_complete_dcs(
        network, policy="cfactor", threshold=1.0,
        window_levels=WINDOW_LEVELS, simulation_vectors=64,
        query_budget=4096, rng=np.random.default_rng(7),
    )
    wall = time.perf_counter() - started
    return {
        "wall": wall,
        "solver": obs_metrics.counter("sat.solve_seconds").value
        - solver_before,
        "report": report,
        "snapshot": {
            name: (tuple(node.fanins), node.cover.cubes.tobytes())
            for name, node in network.nodes.items()
        },
    }


def _counts(report):
    return (report.complete_dc_minterms, report.window_dc_minterms,
            report.nodes_changed, report.dc_entries_assigned)


def test_complete_dc_engine_speedup(benchmark):
    # Min-of-2: machine noise on this scale exceeds the margin a single
    # run would leave.
    runs = []
    def _once():
        for _ in range(2):
            runs.append(_perf_run())
        return runs
    benchmark.pedantic(_once, rounds=1, iterations=1)
    engine = min(runs, key=lambda r: r["wall"])

    for other in runs:
        assert _counts(other["report"]) == PERF_GOLDEN_COUNTS
        assert other["snapshot"] == engine["snapshot"]

    perf = {
        "subject": "4x disjoint 8-PI cones",
        "engine_wall_seconds": round(engine["wall"], 3),
        "engine_solver_seconds": round(engine["solver"], 3),
    }
    emit("flexibility engine", json.dumps(perf, indent=2))
    _update_bench_file(perf=perf)

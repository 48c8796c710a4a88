"""P1 — Substrate performance micro-benchmarks.

Throughput of the load-bearing substrate pieces (ESPRESSO, the
technology mapper, the reliability metrics).  These are true
pytest-benchmark timings (multiple rounds), useful for catching
performance regressions in the algorithms everything else sweeps over.

Results are also persisted to ``BENCH_substrate.json`` at the repo root
(see :data:`BENCH_FILE`), so the perf trajectory is tracked across PRs:
each run rewrites the file with the current machine's numbers plus the
speedup against the recorded seed-commit baseline.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.benchgen import mcnc_benchmark
from repro.benchgen.synthetic import generate_spec
from repro.core.complexity import local_complexity_factor
from repro.core.reliability import error_events
from repro.espresso.cube import Cover
from repro.espresso.minimize import espresso
from repro.flows.sweep import fraction_sweep
from repro.perf import reset_cache
from repro.synth.library import generic_70nm_library
from repro.synth.mapping import map_graph
from repro.synth.network import LogicNetwork
from repro.synth.subject import build_subject_graph

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_substrate.json"

SEED_ESPRESSO_N9_SECONDS = 0.148
"""ESPRESSO wall-clock on the n=9 random function at the seed commit
(pre bit-parallel kernels), measured on the reference container."""

_RESULTS: dict = {}


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timings(benchmark):
    """(mean, min) seconds, or (None, None) under ``--benchmark-disable``."""
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return None, None
    return stats.stats.mean, stats.stats.min


@pytest.fixture(scope="module", autouse=True)
def _persist_results():
    """Write everything the benchmarks recorded to BENCH_substrate.json.

    The run also lands in the telemetry ledger via :class:`ObsSession`
    (benchmark numbers under ``extra``), so ``repro obs regressions``
    can gate bench-vs-bench drift the same way it gates sweeps.
    """
    from repro.obs import ObsSession

    _RESULTS.clear()
    _RESULTS["generated_by"] = "benchmarks/bench_substrate_perf.py"
    _RESULTS["cpus"] = _available_cpus()
    session = ObsSession("bench_substrate_perf")
    with session:
        yield
        session.exit_status = 0
        if len(_RESULTS) > 2:
            session.extra = {"bench": {
                key: value for key, value in _RESULTS.items()
                if isinstance(value, dict)
            }}
    if len(_RESULTS) > 2:
        # Provenance: which revision/library versions produced the numbers.
        _RESULTS["manifest"] = session.manifest.to_dict()
        # Merge over the existing file so a partial run (e.g. the CI
        # ``--quick`` smoke) refreshes its own entries without dropping
        # numbers it did not measure.
        merged: dict = {}
        if BENCH_FILE.exists():
            try:
                merged = json.loads(BENCH_FILE.read_text())
            except json.JSONDecodeError:
                merged = {}
        merged.update(_RESULTS)
        BENCH_FILE.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def random_function():
    rng = np.random.default_rng(0)
    n = 9
    phases = rng.choice(np.array([0, 1, 2], np.uint8), size=1 << n, p=[0.3, 0.3, 0.4])
    on = Cover.from_minterms(n, np.flatnonzero(phases == 1))
    dc = Cover.from_minterms(n, np.flatnonzero(phases == 2))
    return on, dc


def test_espresso_throughput(benchmark, random_function):
    """Cold-path ESPRESSO throughput (each timed call starts on an empty memo)."""
    on, dc = random_function

    def run_cold():
        reset_cache()
        return espresso(on, dc)

    cover = benchmark(run_cold)
    assert cover.num_cubes > 0
    mean, fastest = _timings(benchmark)
    if fastest is None:
        return
    # Judge the speedup on the min: on a loaded box the mean absorbs
    # scheduler noise, while the min tracks the actual cost of the kernels.
    speedup = SEED_ESPRESSO_N9_SECONDS / fastest
    _RESULTS["espresso_n9"] = {
        "mean_seconds": mean,
        "min_seconds": fastest,
        "seed_baseline_seconds": SEED_ESPRESSO_N9_SECONDS,
        "speedup_vs_seed": speedup,
    }
    assert speedup >= 3.0, (
        f"packed kernels regressed: {speedup:.2f}x vs seed baseline "
        f"({fastest * 1e3:.1f} ms against {SEED_ESPRESSO_N9_SECONDS * 1e3:.0f} ms)"
    )


def test_espresso_cached_throughput(benchmark, random_function):
    """Warm-path throughput: identical problem served from the memo."""
    on, dc = random_function
    reset_cache()
    espresso(on, dc)  # populate
    cover = benchmark(espresso, on, dc)
    assert cover.num_cubes > 0
    mean, _ = _timings(benchmark)
    if mean is not None:
        _RESULTS["espresso_n9_cached"] = {"mean_seconds": mean}


def test_parallel_sweep_wallclock():
    """10-point fraction sweep: warm-pool ``jobs=4`` vs serial wall-clock.

    Both timings land in BENCH_substrate.json along with the CPU count
    they were measured on.  The pool is warmed (spawn + preload) before
    the timed region — steady-state sweeps run against an already-warm
    pool, and the spawn cost is a one-time constant, not a per-sweep tax.

    The >= 2.5x speedup floor is only asserted when the machine actually
    has at least ``jobs`` CPUs; on a smaller box the entry is annotated
    ``"insufficient_cpus": true`` so a 1-core run is never read as a
    parallelism regression.  The bit-identical-to-serial check always
    runs.
    """
    from repro.perf import get_pool, shutdown_pool

    jobs = 4
    spec = generate_spec(
        "sweepbench", 10, 8, target_cf=0.65, dc_fraction=0.5, seed=7
    )
    fractions = [i / 9 for i in range(10)]
    # Parallel first: fresh workers start with empty minimisation caches
    # that die with the pool, and the parent's cache is reset before the
    # serial run, so neither timing inherits warm state from the other.
    # Shut down any pool a previous test left behind and warm a fresh one.
    shutdown_pool()
    get_pool(jobs)  # spawn + preload outside the timed region
    start = time.perf_counter()
    parallel = fraction_sweep(spec, fractions, objective="area", jobs=jobs)
    parallel_seconds = time.perf_counter() - start
    shutdown_pool()
    reset_cache()
    start = time.perf_counter()
    serial = fraction_sweep(spec, fractions, objective="area", jobs=1)
    serial_seconds = time.perf_counter() - start
    assert serial == parallel  # deterministic ordering, identical results
    cpus = _available_cpus()
    insufficient = cpus < jobs
    speedup = serial_seconds / parallel_seconds
    _RESULTS["fraction_sweep_10pt"] = {
        "points": len(fractions),
        "jobs": jobs,
        "cpus": cpus,
        "insufficient_cpus": insufficient,
        "includes_pool_spawn": False,
        "serial_seconds": serial_seconds,
        "parallel_jobs4_seconds": parallel_seconds,
        "speedup": speedup,
    }
    if not insufficient:
        assert speedup >= 2.5, (
            f"warm-pool jobs={jobs} only {speedup:.2f}x over serial "
            f"({parallel_seconds:.2f}s vs {serial_seconds:.2f}s) on {cpus} CPUs"
        )


def test_mapper_throughput(benchmark):
    spec = mcnc_benchmark("bench")
    from repro.espresso.minimize import minimize_spec
    from repro.synth.optimize import optimize_network

    minimized = minimize_spec(spec)
    network = LogicNetwork.from_covers(
        list(spec.input_names), minimized.covers, list(spec.output_names)
    )
    optimize_network(network)
    graph = build_subject_graph(network)
    library = generic_70nm_library()
    netlist = benchmark(map_graph, graph, library)
    assert netlist.num_gates > 0
    mean, _ = _timings(benchmark)
    if mean is not None:
        _RESULTS["mapper_bench"] = {"mean_seconds": mean}


def test_reliability_metric_throughput(benchmark):
    rng = np.random.default_rng(2)
    phases = rng.choice(np.array([0, 1, 2], np.uint8), size=(12, 1 << 12),
                        p=[0.25, 0.25, 0.5])
    events = benchmark(error_events, phases)
    assert int(np.sum(events)) >= 0


def test_lcf_metric_throughput(benchmark):
    rng = np.random.default_rng(3)
    phases = rng.choice(np.array([0, 1, 2], np.uint8), size=(12, 1 << 12),
                        p=[0.25, 0.25, 0.5])
    lcf = benchmark(local_complexity_factor, phases)
    assert lcf.shape == phases.shape


# --------------------------------------------------------- simulation engine


def _quick_mode() -> bool:
    """Smoke mode for CI: small instances, relaxed speedup floors."""
    return os.environ.get("REPRO_BENCH_QUICK") == "1"


def _random_sim_network(seed: int, num_pis: int, num_nodes: int) -> LogicNetwork:
    """A deep random multi-level network for simulation benchmarks.

    Nodes are wide and sparse — 5-9 fanins, 3-5 cubes of 2-4 literals —
    the shape ESPRESSO-minimised multi-level logic actually has, and the
    regime where the per-node cost gap between byte-per-vector and packed
    evaluation is representative.
    """
    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(num_pis)]
    net = LogicNetwork(names)
    signals = list(names)
    for t in range(num_nodes):
        # Bias fanins towards recent signals so cones are deep, not flat.
        pool = signals[-16:]
        k = int(rng.integers(5, min(10, len(pool) + 1)))
        fanins = [str(s) for s in rng.choice(pool, size=k, replace=False)]
        rows = np.full((int(rng.integers(3, 6)), k), 2, dtype=np.uint8)
        for row in rows:
            lits = rng.choice(k, size=int(rng.integers(2, 5)), replace=False)
            row[lits] = rng.integers(0, 2, size=lits.size)
        name = f"t{t}"
        net.add_node(name, fanins, Cover(rows, k))
        signals.append(name)
    for position, signal in enumerate(signals[-4:]):
        net.set_output(f"y{position}", signal)
    return net


def _interleaved_best_of(repeats: int, *runs) -> list[float]:
    """Min wall-clock of each of *runs* over *repeats* rounds.

    Each round calls every run once, so a burst of host load lands on
    all sides alike rather than on whichever side was being timed (the
    min tracks kernel cost).
    """
    best = [float("inf")] * len(runs)
    for _ in range(repeats):
        for index, run in enumerate(runs):
            start = time.perf_counter()
            run()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def test_sim_packed_vs_bool():
    """Full-space simulation: packed engine vs byte-per-vector reference.

    The tentpole target: >= 10x on an n=14 multi-level network (the packed
    path touches 64x less memory per signal and replaces the per-node
    gather with a handful of word-wise ops).
    """
    from repro.sim import engine as sim_engine

    quick = _quick_mode()
    num_pis, num_nodes, repeats = (10, 12, 3) if quick else (14, 30, 7)
    net = _random_sim_network(11, num_pis, num_nodes)
    net.evaluate_reference()  # warm cover caches out of the timed region
    sim_engine.network_values(net)

    bool_seconds, packed_seconds = _interleaved_best_of(
        repeats, net.evaluate_reference, lambda: sim_engine.network_values(net)
    )

    # Equivalence while we are here: same signals, same tables.
    from repro.sim import packed as pk

    packed_values = sim_engine.network_values(net)
    reference = net.evaluate_reference()
    size = 1 << num_pis
    for name, table in reference.items():
        np.testing.assert_array_equal(
            pk.unpack_bool(packed_values[name], size), table, err_msg=name
        )

    speedup = bool_seconds / packed_seconds
    _RESULTS["sim_packed_vs_bool"] = {
        "num_pis": num_pis,
        "num_nodes": num_nodes,
        "quick": quick,
        "bool_seconds": bool_seconds,
        "packed_seconds": packed_seconds,
        "speedup": speedup,
    }
    floor = 2.0 if quick else 10.0
    assert speedup >= floor, (
        f"packed simulation only {speedup:.1f}x over the boolean reference "
        f"({packed_seconds * 1e3:.2f} ms vs {bool_seconds * 1e3:.2f} ms)"
    )


def test_odc_incremental_vs_full():
    """Per-node flip sweep: cone-restricted packed flips vs full re-walks.

    The nodal-reassignment inner loop asks "do the POs change?" for every
    node; the incremental simulator answers from the flipped node's fanout
    cone only.  Target: >= 5x over the boolean full-topological-walk
    baseline (``_evaluate_with_flip``) across a whole-network sweep.
    """
    from repro.sim.incremental import IncrementalNetworkSim
    from repro.synth.odc import _evaluate_with_flip

    quick = _quick_mode()
    num_pis, num_nodes, repeats = (9, 14, 2) if quick else (14, 40, 3)
    net = _random_sim_network(23, num_pis, num_nodes)
    node_names = list(net.nodes)
    values = net.evaluate_reference()

    def full_sweep():
        for name in node_names:
            _evaluate_with_flip(net, values, name)

    sim = IncrementalNetworkSim(net)

    def incremental_sweep():
        for name in node_names:
            sim.flip_outputs(name)

    full_seconds, incremental_seconds = _interleaved_best_of(
        repeats, full_sweep, incremental_sweep
    )

    speedup = full_seconds / incremental_seconds
    _RESULTS["odc_incremental_vs_full"] = {
        "num_pis": num_pis,
        "num_nodes": num_nodes,
        "quick": quick,
        "full_seconds": full_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": speedup,
    }
    floor = 1.5 if quick else 5.0
    assert speedup >= floor, (
        f"incremental flips only {speedup:.1f}x over full re-walks "
        f"({incremental_seconds * 1e3:.2f} ms vs {full_seconds * 1e3:.2f} ms)"
    )


if __name__ == "__main__":
    # ``python benchmarks/bench_substrate_perf.py --quick`` is the CI smoke
    # entry: run only the simulation-engine benchmarks on small instances
    # (still persisting their numbers to BENCH_substrate.json).
    import sys

    if "--quick" in sys.argv:
        os.environ["REPRO_BENCH_QUICK"] = "1"
    raise SystemExit(
        pytest.main(
            [
                "-q",
                f"{__file__}::test_sim_packed_vs_bool",
                f"{__file__}::test_odc_incremental_vs_full",
            ]
        )
    )

"""P1 — Substrate speedup floors.

Each test times a load-bearing kernel against a fixed reference and
requires a minimum ratio: ESPRESSO against its seed-commit wall clock,
the warm pool against a serial sweep, packed simulation against the
byte-per-vector reference, and incremental flips against full network
re-walks.  End-to-end and per-layer timings come from ``perfbench/``
(declared in ``BENCHMARK.json``); these floors only guard the kernels.
"""

import gc
import os
import statistics
import time

import numpy as np

from repro.benchgen.synthetic import generate_spec
from repro.espresso.cube import Cover
from repro.espresso.minimize import espresso
from repro.flows.sweep import fraction_sweep
from repro.perf import reset_cache
from repro.synth.network import LogicNetwork

SEED_ESPRESSO_N9_SECONDS = 0.148
"""ESPRESSO wall-clock on the n=9 random function at the seed commit
(pre bit-parallel kernels), measured on the reference container."""


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _cpu_seconds(run) -> float:
    start = time.thread_time()
    run()
    return time.thread_time() - start


_TIMING_BUDGET_S = 20.0
"""Thread CPU seconds the timed calls of one floor may use before the
floor is judged on the best round gathered so far."""

_ROUND_PAIRS = 7
"""Adjacent pairs per round; a round's speedup is their median ratio."""


def _paired_speedup(slow, fast, floor: float) -> tuple[float, float, float]:
    """The speedup of *fast* over *slow*, judged on adjacent pairs.

    Rounds of :data:`_ROUND_PAIRS` pairs run with the garbage collector
    off, alternating which side goes first in each pair.  A pair's ratio
    compares two calls made moments apart in thread CPU time, so a slow
    spell of the host lands on both sides of one pair; a ratio of
    per-side minima instead reads high when only the slow side's calls
    were slowed.  A round's speedup is the median of its pair ratios,
    which one disturbed pair cannot move.  Rounds run until one reaches
    *floor* or the timed calls have used :data:`_TIMING_BUDGET_S`.  Thread
    CPU time leaves out time the process spends descheduled, but not the
    slowdown from a co-tenant sharing the core, which costs the
    interpreter-bound fast side more than the memory-bound slow side.
    Such episodes last seconds, so the budget gives the rounds the
    seconds they need to reach a quiet stretch; a real shortfall stays
    below the floor in every round.

    Returns:
        The best round's median pair ratio, and that round's median
        thread CPU seconds of *slow* and of *fast*.
    """
    best = (0.0, 0.0, 0.0)
    sides = [fast, slow]
    spent = 0.0
    gc.collect()
    gc.disable()
    try:
        while spent < _TIMING_BUDGET_S and best[0] < floor:
            ratios, slow_times, fast_times = [], [], []
            for _ in range(_ROUND_PAIRS):
                sides.reverse()
                seconds = {side: _cpu_seconds(side) for side in sides}
                spent += seconds[slow] + seconds[fast]
                ratios.append(seconds[slow] / seconds[fast])
                slow_times.append(seconds[slow])
                fast_times.append(seconds[fast])
            best = max(best, (
                statistics.median(ratios),
                statistics.median(slow_times),
                statistics.median(fast_times),
            ))
    finally:
        gc.enable()
    return best


def test_espresso_throughput():
    """Cold-path ESPRESSO on the n=9 random function: >= 3x the seed.

    Every call starts on an empty memo.  The floor is judged on the min
    of ten calls: on a loaded box a mean absorbs scheduler noise, while
    the min tracks the actual cost of the kernels.
    """
    rng = np.random.default_rng(0)
    n = 9
    phases = rng.choice(np.array([0, 1, 2], np.uint8), size=1 << n, p=[0.3, 0.3, 0.4])
    on = Cover.from_minterms(n, np.flatnonzero(phases == 1))
    dc = Cover.from_minterms(n, np.flatnonzero(phases == 2))

    def run_cold():
        reset_cache()
        return espresso(on, dc)

    assert run_cold().num_cubes > 0
    times = []
    for _ in range(10):
        start = time.perf_counter()
        run_cold()
        times.append(time.perf_counter() - start)
    fastest = min(times)
    speedup = SEED_ESPRESSO_N9_SECONDS / fastest
    assert speedup >= 3.0, (
        f"packed kernels regressed: {speedup:.2f}x vs seed baseline "
        f"({fastest * 1e3:.1f} ms against {SEED_ESPRESSO_N9_SECONDS * 1e3:.0f} ms)"
    )


def test_parallel_sweep_wallclock():
    """10-point fraction sweep: warm-pool ``jobs=4`` vs serial wall-clock.

    The pool is warmed (spawn + preload) before the timed region —
    steady-state sweeps run against an already-warm pool, and the spawn
    cost is a one-time constant, not a per-sweep tax.

    The >= 2.5x speedup floor is only asserted when the machine actually
    has at least ``jobs`` CPUs, so a 1-core run is never read as a
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
    if cpus >= jobs:
        speedup = serial_seconds / parallel_seconds
        assert speedup >= 2.5, (
            f"warm-pool jobs={jobs} only {speedup:.2f}x over serial "
            f"({parallel_seconds:.2f}s vs {serial_seconds:.2f}s) on {cpus} CPUs"
        )


# --------------------------------------------------------- simulation engine


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


def test_sim_packed_vs_bool():
    """Full-space simulation: packed engine vs byte-per-vector reference.

    The floor: >= 10x on an n=14 multi-level network (the packed path
    touches 64x less memory per signal and replaces the per-node gather
    with a handful of word-wise ops).
    """
    from repro.sim import engine as sim_engine

    num_pis, num_nodes = 14, 30
    net = _random_sim_network(11, num_pis, num_nodes)
    net.evaluate_reference()  # warm cover caches out of the timed region
    sim_engine.network_values(net)

    speedup, bool_seconds, packed_seconds = _paired_speedup(
        net.evaluate_reference, lambda: sim_engine.network_values(net), 10.0
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

    assert speedup >= 10.0, (
        f"packed simulation only {speedup:.1f}x over the boolean reference "
        f"(best round's median adjacent-pair ratio; its medians "
        f"{packed_seconds * 1e3:.2f} ms vs {bool_seconds * 1e3:.2f} ms)"
    )


def test_odc_incremental_vs_full():
    """Per-node flip sweep: cone-restricted packed flips vs full re-walks.

    The nodal-reassignment inner loop asks "do the POs change?" for every
    node; the incremental simulator answers from the flipped node's fanout
    cone only.  Floor: >= 5x over the boolean full-topological-walk
    baseline (``_evaluate_with_flip``) across a whole-network sweep.
    """
    from repro.sim.incremental import IncrementalNetworkSim
    from repro.synth.odc import _evaluate_with_flip

    num_pis, num_nodes = 14, 40
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

    speedup, full_seconds, incremental_seconds = _paired_speedup(
        full_sweep, incremental_sweep, 5.0
    )
    assert speedup >= 5.0, (
        f"incremental flips only {speedup:.1f}x over full re-walks "
        f"(best round's median adjacent-pair ratio; its medians "
        f"{incremental_seconds * 1e3:.2f} ms vs {full_seconds * 1e3:.2f} ms)"
    )

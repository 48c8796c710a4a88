"""Regression guard: disabled instrumentation must stay (nearly) free.

The ESPRESSO loop carries spans and counters after the observability PR;
with tracing off those must cost < 5% on the n=9 random function
(the one ``benchmarks/bench_substrate_perf.py`` holds to its floor).  The
control strips the instrumentation by monkeypatching the ``span`` and
``obs_metrics`` symbols inside :mod:`repro.espresso.minimize` to free
no-op stand-ins, then both variants are timed from a cold cache in
adjacent pairs, alternating which side goes first, with the garbage
collector off.  Each pair's ratio compares two runs made moments apart in
thread CPU time, so a slow spell of the host lands on both sides of one
pair, and the bound is judged on the median pair ratio, which one
disturbed pair cannot move.
"""

import gc
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.espresso import minimize as minimize_module
from repro.espresso.cube import Cover
from repro.espresso.minimize import espresso
from repro.obs import NULL_SPAN, Counter, disable_tracing, is_enabled
from repro.perf import reset_cache

MAX_OVERHEAD = 1.05  # the acceptance bound: < 5%
PAIRS = 21


@pytest.fixture
def n9_problem():
    rng = np.random.default_rng(0)
    n = 9
    phases = rng.choice(np.array([0, 1, 2], np.uint8), size=1 << n,
                        p=[0.3, 0.3, 0.4])
    on = Cover.from_minterms(n, np.flatnonzero(phases == 1))
    dc = Cover.from_minterms(n, np.flatnonzero(phases == 2))
    return on, dc


def _cold_cpu_time(fn):
    """Thread CPU seconds of one call of *fn* on an empty minimisation cache."""
    reset_cache()
    start = time.thread_time()
    fn()
    return time.thread_time() - start


def test_disabled_tracing_overhead_under_5_percent(n9_problem, monkeypatch):
    on, dc = n9_problem
    disable_tracing()
    assert not is_enabled()
    unregistered = Counter("unregistered")
    no_counters = SimpleNamespace(counter=lambda name: unregistered)

    def instrumented():
        return _cold_cpu_time(lambda: espresso(on, dc))

    def control():
        with monkeypatch.context() as patch:
            patch.setattr(minimize_module, "span",
                          lambda name, /, **attrs: NULL_SPAN)
            patch.setattr(minimize_module, "obs_metrics", no_counters)
            return instrumented()

    instrumented(), control()  # warm caches/allocator before timing
    ratios = []
    gc.collect()
    gc.disable()
    try:
        for pair in range(PAIRS):
            order = (instrumented, control) if pair % 2 else (control, instrumented)
            spent = {side: side() for side in order}
            ratios.append(spent[instrumented] / spent[control])
    finally:
        gc.enable()
    ratio = statistics.median(ratios)
    assert ratio <= MAX_OVERHEAD, (
        f"disabled instrumentation costs {100 * (ratio - 1):.1f}% on the "
        f"n=9 espresso benchmark (median of {PAIRS} adjacent-pair ratios of "
        f"thread CPU time, range {min(ratios):.3f}-{max(ratios):.3f}); "
        f"budget is 5%"
    )


def test_enabled_tracing_records_espresso_passes(n9_problem):
    from repro.obs import tracing

    on, dc = n9_problem
    reset_cache()
    with tracing() as tracer:
        espresso(on, dc)
    names = {record["name"] for record in tracer.records}
    assert {"espresso", "espresso.expand", "espresso.irredundant"} <= names
    top = [r for r in tracer.records if r["name"] == "espresso"]
    assert top[0]["args"]["cubes_in"] == on.num_cubes
    assert top[0]["args"]["iterations"] >= 1

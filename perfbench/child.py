"""One workload in a fresh process: set up, then time passes for a window.

``run.py`` starts this script once per set-up sample, once for the
one-pass reference run at seed 0 and once for the measured run; it is
not meant to be run by hand.  The result is written as JSON to
``--result``.  At seed 0 every pass is checked against ``golden/seed0.json``.

The entry point is guarded by ``if __name__ == "__main__"``: the warm
pool's forkserver re-imports the main module in every worker, and an
unguarded module would start a benchmark in each of them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

from hostspeed import calibrate, normalised
from layers import LayerTracer, counter_values, layer_metrics
from workloads import WORKLOADS, Call

GOLDEN = Path(__file__).resolve().parent / "golden" / "seed0.json"
"""Every FlowResult field of every seed-0 point (``record_golden.py``)."""


def warm_pool(jobs: int) -> float:
    """Start the warm pool and wait until its workers answer; seconds taken."""
    from repro.perf import get_pool

    start = time.perf_counter()
    get_pool(jobs).map(abs, [0] * (2 * jobs), jobs)
    return time.perf_counter() - start


def check_pass(calls: list[Call], reference: list[dict] | None) -> tuple[list[str], list[str]]:
    """Labels of the failed points of one pass, and what went wrong.

    A point fails when its call raised, or when *reference* (one
    ``{"label": ..., **fields}`` dict per point) is given and any field
    differs from it.
    """
    points = [(label, None if call.results is None else call.results[index])
              for call in calls for index, label in enumerate(call.labels)]
    problems = [f"{call.labels[0]}..: {call.error}"
                for call in calls if call.results is None]
    if reference is not None and [r["label"] for r in reference] != [p[0] for p in points]:
        problems.append("point labels differ from the reference")
        return [label for label, _ in points], problems
    failed = []
    for index, (label, fields) in enumerate(points):
        if fields is None:
            failed.append(label)
        elif reference is not None:
            expected = {k: v for k, v in reference[index].items() if k != "label"}
            if fields != expected:
                failed.append(label)
                diff = sorted(k for k in expected if fields.get(k) != expected[k])
                problems.append(f"{label}: differs from the reference in {diff}")
    return failed, problems


def labelled(calls: list[Call]) -> list[dict[str, Any]]:
    return [{"label": label, **call.results[index]}
            for call in calls if call.results is not None
            for index, label in enumerate(call.labels)]


def time_calls(calls: list[Call]) -> tuple[list[float], list[float]]:
    """Run *calls* in order, calibrating the host before and after each.

    Returns the wall seconds of every call and the same in reference
    seconds (:mod:`hostspeed`); calibration time is in neither.
    """
    raw, norm = [], []
    before = calibrate()
    for call in calls:
        start = time.perf_counter()
        call.run()
        elapsed = time.perf_counter() - start
        after = calibrate()
        raw.append(elapsed)
        norm.append(normalised(elapsed, before, after))
        before = after
    return raw, norm


def median_pass(passes: list[list[float]]) -> float:
    """Sum over the calls of a pass of each call's median over *passes*."""
    return sum(statistics.median(times) for times in zip(*passes))


def measure(workload, inputs, *, seconds: float, trace: bool, workdir: str,
            golden: list[dict] | None, generate_s: float = 0.0,
            setup_spawn_s: float = 0.0) -> dict[str, Any]:
    """Time passes of *workload* until the *seconds* window is used up.

    Every call is timed on its own; ``wall_s`` sums each call's median
    over the untraced passes, in reference seconds, and ``wall_raw_s``
    does the same with wall seconds.  Untraced runs stop before a pass
    that would overrun the window (always at least one pass).  Traced
    runs alternate untraced and traced passes, so ``trace.overhead``
    compares passes of the same process; the first pass, which also pays
    first-call costs, is left out of that comparison, so a traced run
    makes at least three passes.
    """
    from repro.obs.metrics import diff_snapshots, metrics_snapshot
    from repro.perf import reset_cache, shutdown_pool

    tracer = LayerTracer() if trace else None
    raw: dict[bool, list[list[float]]] = {False: [], True: []}
    norm: dict[bool, list[list[float]]] = {False: [], True: []}
    durations: list[float] = []
    layers: dict[str, float] = defaultdict(float)
    reference = golden
    first: list[dict] | None = None
    points = attempted = failed = 0
    failed_labels: set[str] = set()
    problems: list[str] = []
    window_start = time.perf_counter()
    index = 0
    while True:
        pass_start = time.perf_counter()
        traced = trace and index % 2 == 1
        pass_dir = os.path.join(workdir, f"pass{index}")
        os.makedirs(pass_dir)
        # Every pass starts with empty minimisation caches, like a fresh
        # process; pool workers keep their own, so the pool is restarted.
        respawn = workload.jobs > 1 and index > 0
        if respawn:
            shutdown_pool()
        reset_cache()
        spawn_s = warm_pool(workload.jobs) if respawn else setup_spawn_s
        gc.collect()
        calls = workload.plan(inputs, pass_dir)
        before = metrics_snapshot()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            call_raw, call_norm = time_calls(calls)
        finally:
            if traced:
                tracer.restore()
        counters = counter_values(diff_snapshots(metrics_snapshot(), before))
        shutil.rmtree(pass_dir, ignore_errors=True)
        raw[traced].append(call_raw)
        norm[traced].append(call_norm)
        points = sum(len(call.labels) for call in calls)
        pass_failed, pass_problems = check_pass(calls, reference)
        attempted += points
        failed += len(pass_failed)
        failed_labels.update(pass_failed)
        problems += [f"pass {index}: {text}" for text in pass_problems]
        if first is None:
            first = labelled(calls)
            # Without a golden, later passes must reproduce the first one.
            if reference is None and not pass_failed:
                reference = first
        if traced:
            for name, value in layer_metrics(tracer, counters, workload.jobs).items():
                layers[name] += value
            layers["pool.spawn_s"] += spawn_s
        index += 1
        durations.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - window_start
        if trace and not (len(raw[False]) > 1 and raw[True]):
            continue
        if elapsed + statistics.median(durations) > seconds:
            break
    result: dict[str, Any] = {
        "passes": index,
        "points": points,
        "attempted": attempted,
        "failed": failed,
        "failed_points": sorted(failed_labels),
        "problems": problems[:20],
        "wall_s": median_pass(norm[False]),
        "wall_raw_s": median_pass(raw[False]),
        "call_seconds": raw[False],
        "call_reference_seconds": norm[False],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "area_total": sum(point["area"] for point in first),
        "error_rate_mean": (statistics.fmean(point["error_rate"] for point in first)
                            if first else 0.0),
    }
    if trace:
        traced_passes = len(raw[True])
        result["per_layer"] = {name: value / traced_passes
                               for name, value in layers.items()}
        result["per_layer"]["benchgen.generate_s"] = generate_s
        result["per_layer"]["trace.overhead"] = (
            median_pass(norm[True]) / median_pass(norm[False][1:]) - 1.0
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.time() at which the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    first_calibration = calibrate()
    calibration_s = time.perf_counter() - start

    from repro.perf import shutdown_pool

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    inputs = workload.prepare(args.seed)
    generate_s = time.perf_counter() - start
    try:
        spawn_s = warm_pool(workload.jobs) if workload.jobs > 1 else 0.0
        setup_raw_s = time.time() - args.started - calibration_s
        result: dict[str, Any] = {
            "setup_raw_s": setup_raw_s,
            "setup_s": normalised(setup_raw_s, first_calibration, calibrate()),
        }
        if not args.setup_only:
            golden = None
            if args.seed == 0:
                with open(GOLDEN, encoding="utf-8") as handle:
                    golden = json.load(handle)["workloads"][args.workload]
            result.update(measure(
                workload, inputs, seconds=args.seconds, trace=bool(args.trace),
                workdir=args.workdir, golden=golden, generate_s=generate_s,
                setup_spawn_s=spawn_s,
            ))
    finally:
        shutdown_pool()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

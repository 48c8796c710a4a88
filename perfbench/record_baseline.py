"""Measure the benchmark's baseline and run-to-run spread.

Run from the repository root::

    python perfbench/record_baseline.py

For every workload this runs ``run.py`` untraced once per seed
(``FIRST_SEED`` .. ``FIRST_SEED + RUNS - 1``) with the ``run_seconds``
of ``BENCHMARK.json``, repeats that set ``SETS`` times, and runs it
traced once at the first seed.  Each set records every end-to-end
metric's median, quartiles and spread (quartile distance over the
median) next to the bound that ``BENCHMARK.json`` sets for it, and the
same summary of the wall-clock readings ``wall_raw_s`` and
``setup_raw_s``; ``median_change`` is the last set's median over the
first's, minus 1.
A manifest names the commit, the CPU count and the Python and NumPy
versions.  The result overwrites ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
"""Untraced runs per set, one per seed."""
SETS = 2
"""Repeats of the untraced set, to compare their medians."""
FIRST_SEED = 1
WALL_CLOCK = ("wall_raw_s", "setup_raw_s")
"""Wall-clock readings of the normalised times, kept to show the drift."""


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_s"] = time.monotonic() - start
    result["text"] = {fields[1]: float(fields[2]) for fields in map(str.split, lines[:-1])
                      if len(fields) == 4 and fields[0] == workload}
    return result


def measure_set(name: str, seeds: list[int], seconds: int,
                bounds: dict[str, float]) -> dict:
    """One untraced run per seed, summarized per end-to-end metric."""
    runs = [run_bench(name, seed, seconds, 0) for seed in seeds]
    for seed, run in zip(seeds, runs):
        print(f"{name} seed={seed} " + " ".join(
            f"{metric}={value['value']:.6g}"
            for metric, value in run["metrics"].items()), flush=True)
    return {
        "attempted": [run["attempted"] for run in runs],
        "failed": [run["failed"] for run in runs],
        "run_s": [run["run_s"] for run in runs],
        "end_to_end": {
            metric: summarize([run["metrics"][metric]["value"] for run in runs], bound)
            for metric, bound in bounds.items()
        },
        "wall_clock": {
            metric: summarize([run["text"][metric] for run in runs], None)
            for metric in WALL_CLOCK
        },
    }


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    spread = (q3 - q1) / median if median else 0.0
    summary = {"median": median, "q1": q1, "q3": q3, "spread": spread,
               "values": values}
    if bound is not None:
        summary["bound"] = bound
        summary["spread_within_third_of_bound"] = spread < bound / 3
    return summary


def manifest() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    import numpy

    return {
        "git_rev": rev,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    workloads = {entry["name"]: {"seeds": seeds, "sets": []}
                 for entry in spec["workloads"]}
    for index in range(SETS):
        for name, record in workloads.items():
            record["sets"].append(measure_set(name, seeds, seconds, bounds))
            if index == 0:
                traced = run_bench(name, seeds[0], seconds, 1)
                record["traced"] = {metric: value["value"]
                                    for metric, value in traced["metrics"].items()}
    for record in workloads.values():
        first = record["sets"][0]["end_to_end"]
        last = record["sets"][-1]["end_to_end"]
        record["median_change"] = {metric: last[metric]["median"]
                                   / first[metric]["median"] - 1.0
                                   for metric in first}
    result = {
        "manifest": manifest(),
        "command": spec["command"],
        "run_seconds": seconds,
        "runs_per_set": RUNS,
        "workloads": workloads,
    }
    (HERE / "baseline.json").write_text(json.dumps(result, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""perfbench: end-to-end and per-layer benchmark of the synthesis flow.

Usage (from the repository root)::

    python perfbench/run.py [--workload NAME ...] [--seed S] [--seconds T]
                            [--trace [0|1]] [--out FILE]

Each workload runs in fresh child processes (``child.py``): a few that
only set up, for the ``setup_s`` median; a reference child that makes one
pass over the fixed seed-0 inputs, checks it against the golden file and
gives the memory and quality metrics; then one that sets up and times
passes over the ``--seed`` inputs for ``--seconds`` (at least one pass).
Times are normalised to a reference host speed (``hostspeed.py``); the
wall-clock readings are printed beside them as ``*_raw_s``.  Every
metric is printed as ``workload metric value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace``
the per-layer ones).  The exit code is 0 only when every point passed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import PER_LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "area_total": "area",
    "error_rate_mean": "fraction",
}
"""End-to-end metrics and their units (bounds live in BENCHMARK.json).
``wall_s`` and ``setup_s`` are in reference seconds (``hostspeed.py``)."""

REPORTED = {**END_TO_END, "wall_raw_s": "s", "setup_raw_s": "s",
            "points": "count", "points_failed": "count", "passes": "count"}

SETUP_SAMPLES = 3
"""Processes whose set-up time is measured; ``setup_s`` is their median."""

REFERENCE_METRICS = ("peak_rss_mb", "area_total", "error_rate_mean")
"""Taken from the reference child's one pass over the seed-0 inputs, so
they do not move with ``--seed`` and any change in them is the program's."""

CHILD_TIMEOUT_S = 150.0
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants (forkserver, pool workers) on Linux, so
    they can be waited for after their parent process exits."""
    if not sys.platform.startswith("linux"):
        return
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_group(pgid: int, timeout: float = 10.0) -> None:
    """Wait until every process of group *pgid* has ended, killing the
    stragglers after *timeout* seconds, and reap adopted descendants."""
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except (ProcessLookupError, PermissionError):
            return
        if time.monotonic() > deadline:
            if killed:
                return
            os.killpg(pgid, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + timeout
        time.sleep(0.05)


def run_child(workload: str, seed: int, seconds: float, trace: int,
              workdir: Path, setup_only: bool = False) -> dict:
    """Run ``child.py`` in a new session and return its JSON result.

    Raises:
        RuntimeError: when the child fails or times out; the message
            carries the tail of its output.
    """
    tag = tempfile.mkdtemp(prefix=f"{workload}-", dir=workdir)
    result_path = os.path.join(tag, "result.json")
    log_path = os.path.join(tag, "child.log")
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src"), str(HERE)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])),
        "REPRO_CACHE_DIR": os.path.join(tag, "benchgen-cache"),
        "REPRO_LEDGER_DISABLE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
    })
    if len(tag) < 64:  # the forkserver's socket path must fit AF_UNIX
        env["TMPDIR"] = tag
    command = [
        sys.executable, str(HERE / "child.py"), workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", tag, "--result", result_path,
        "--started", repr(time.time()),
    ] + (["--setup-only"] if setup_only else [])
    with open(log_path, "wb") as log:
        process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                   stderr=subprocess.STDOUT,
                                   start_new_session=True)
        try:
            code = process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            code = process.wait()
        finally:
            stop_group(process.pid)
    if code != 0 or not os.path.exists(result_path):
        with open(log_path, encoding="utf-8", errors="replace") as log:
            tail = log.read()[-4000:]
        raise RuntimeError(f"{workload}: child exited with {code}\n{tail}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, args: argparse.Namespace, workdir: Path) -> dict:
    setups = [run_child(workload, args.seed, 0, 0, workdir, setup_only=True)
              for _ in range(SETUP_SAMPLES - 1)]
    reference = run_child(workload, 0, 0, 0, workdir)
    result = run_child(workload, args.seed, args.seconds, args.trace, workdir)
    setups.append(dict(result))
    for metric in ("setup_s", "setup_raw_s"):
        result[f"{metric}_samples"] = [setup[metric] for setup in setups]
        result[metric] = statistics.median(result[f"{metric}_samples"])
    for metric in REFERENCE_METRICS:
        result[metric] = reference[metric]
    result["attempted"] += reference["attempted"]
    result["failed"] += reference["failed"]
    result["points_failed"] = len(set(result["failed_points"])
                                  | set(reference["failed_points"]))
    result["problems"] = ([f"seed 0 reference: {problem}"
                           for problem in reference["problems"]]
                          + result["problems"])
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the synthesis flow.")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed of the timed passes; 0 uses the "
                             "stand-ins as built")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measuring window per workload (default 0: one pass)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--out", help="write every measured value as JSON here")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    become_subreaper()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        results = {name: run_workload(name, args, workdir) for name in names}
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    shown = {**REPORTED, **PER_LAYER_METRICS} if args.trace else REPORTED
    emitted = PER_LAYER_METRICS if args.trace else END_TO_END
    metrics = {}
    for name, result in results.items():
        values = {**result, **result.get("per_layer", {})}
        for problem in result["problems"]:
            print(f"{name} FAILED {problem}")
        for metric, unit in shown.items():
            print(f"{name} {metric} {values[metric]!r} {unit}")
        for metric, unit in emitted.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": values[metric], "unit": unit}
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "workloads": results},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

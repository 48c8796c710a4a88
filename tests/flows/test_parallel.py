"""Tests for the parallel sweep executor."""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.benchgen import mcnc_benchmark
from repro.flows.sweep import (
    SweepPointError,
    _run_flow_task,
    fraction_sweep,
    parallel_map,
    run_points,
)
from repro.obs import disable_tracing, metrics_snapshot, reset_metrics, tracing


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    if x == 3:
        raise ValueError(f"cannot process {x}")
    return x


def _staggered_square(x: int) -> int:
    # Early tasks sleep longest, so completion order inverts input order.
    time.sleep(0.05 if x < 2 else 0.0)
    return x * x


def _touch_and_square(task) -> int:
    directory, x = task
    if x == 2:
        raise ValueError(f"cannot process {x}")
    (Path(directory) / f"ran_{x}").touch()
    return x * x


class TestParallelMap:
    def test_serial_and_parallel_agree(self):
        tasks = list(range(10))
        assert parallel_map(_square, tasks, 1) == parallel_map(_square, tasks, 3)

    def test_order_is_deterministic(self):
        assert parallel_map(_square, [3, 1, 2], 2) == [9, 1, 4]

    def test_single_task_stays_in_process(self):
        assert parallel_map(_square, [4], 8) == [16]

    def test_progress_callback_serial(self):
        seen = []
        parallel_map(_square, [1, 2, 3], 1, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_progress_callback_parallel(self):
        seen = []
        parallel_map(_square, [1, 2, 3, 4], 2, progress=lambda d, t: seen.append((d, t)))
        assert [d for d, _ in seen] == [1, 2, 3, 4]
        assert all(t == 4 for _, t in seen)

    def test_progress_monotonic_under_out_of_order_completion(self):
        # The first tasks are the slowest, so later chunks complete first;
        # the reported ``done`` count must still only ever increase and
        # cover every task exactly once.
        seen = []
        tasks = list(range(12))
        results = parallel_map(
            _staggered_square, tasks, 3,
            progress=lambda d, t: seen.append(d),
        )
        assert results == [x * x for x in tasks]
        assert seen == list(range(1, len(tasks) + 1))

    def test_warm_pool_reuse_matches_serial(self):
        # Two successive maps on the same (now warm) pool both agree with
        # the serial path bit-for-bit.
        tasks = list(range(20))
        serial = parallel_map(_square, tasks, 1)
        assert parallel_map(_square, tasks, 4) == serial
        assert parallel_map(_square, tasks, 4) == serial

    def test_jobs_auto_resolves(self):
        tasks = [1, 2, 3]
        assert parallel_map(_square, tasks, "auto") == [1, 4, 9]
        with pytest.raises(ValueError):
            parallel_map(_square, tasks, "lots")


class TestWorkerFailures:
    def test_exception_carries_failing_point(self):
        with pytest.raises(SweepPointError) as excinfo:
            parallel_map(_boom, [1, 2, 3, 4], 2)
        error = excinfo.value
        assert error.index == 2
        assert error.point == 3
        assert "ValueError: cannot process 3" in str(error)
        assert "raise ValueError" in error.worker_traceback

    def test_mid_sweep_error_cancels_pending_work(self, tmp_path):
        # A failure near the front of a long sweep must not let the pool
        # grind through the remaining points: queued chunks are cancelled,
        # so most sentinel files are never written.
        total = 50
        tasks = [(str(tmp_path), x) for x in range(total)]
        with pytest.raises(SweepPointError) as excinfo:
            parallel_map(_touch_and_square, tasks, 2)
        assert excinfo.value.index == 2
        assert excinfo.value.point == tasks[2]
        time.sleep(0.5)  # let in-flight chunks settle before counting
        executed = len(list(tmp_path.glob("ran_*")))
        assert executed < total

    def test_serial_path_raises_plain_exception(self):
        # jobs=1 never crosses a process boundary; the original error
        # (with its real traceback) must surface untouched.
        with pytest.raises(ValueError, match="cannot process 3"):
            parallel_map(_boom, [1, 2, 3], 1)

    def test_flow_point_description_names_parameters(self):
        spec = mcnc_benchmark("fout")
        from repro.flows.sweep import _describe_point

        text = _describe_point((spec, "ranking", {"fraction": 0.5}))
        assert "benchmark=fout" in text
        assert "policy=ranking" in text
        assert "fraction=0.5" in text


class TestCrossProcessTelemetry:
    def test_parallel_sweep_merges_worker_spans_and_metrics(self):
        spec = mcnc_benchmark("fout")
        disable_tracing()
        reset_metrics()
        try:
            with tracing() as tracer:
                fraction_sweep(spec, [0.0, 0.5, 1.0], objective="area", jobs=2)
            merged = metrics_snapshot()
        finally:
            reset_metrics()
        pids = {record["pid"] for record in tracer.records}
        assert len(pids) >= 2  # parent plus at least one worker
        names = {record["name"] for record in tracer.records}
        assert "sweep.fraction" in names  # parent-side span
        assert "flow.run" in names  # worker-side span, merged back
        assert "espresso" in names
        # Worker counters reached the parent registry.
        assert merged["flow.runs"]["value"] == 3
        assert merged["espresso.calls"]["value"] > 0
        # Parent/child links survive the merge: every non-root parent id
        # resolves to a span shipped from the same process.
        by_pid_sid = {(r["pid"], r["sid"]) for r in tracer.records}
        for record in tracer.records:
            if record["parent"]:
                assert (record["pid"], record["parent"]) in by_pid_sid

    def test_serial_sweep_also_counts_runs(self):
        spec = mcnc_benchmark("fout")
        reset_metrics()
        try:
            fraction_sweep(spec, [0.0, 1.0], objective="area", jobs=1)
            merged = metrics_snapshot()
        finally:
            reset_metrics()
        assert merged["flow.runs"]["value"] == 2


class TestParallelSweeps:
    def test_fraction_sweep_parallel_matches_serial(self):
        spec = mcnc_benchmark("fout")
        fractions = [0.0, 0.5, 1.0]
        serial = fraction_sweep(spec, fractions, objective="area", jobs=1)
        parallel = fraction_sweep(spec, fractions, objective="area", jobs=2)
        assert serial == parallel  # FlowResult is a frozen dataclass
        assert [r.parameter for r in parallel] == fractions

    def test_threshold_sweep_parallel_matches_serial(self):
        spec = mcnc_benchmark("fout")
        points = [(spec, {"policy": "cfactor", "threshold": threshold})
                  for threshold in (0.4, 0.8)]
        serial = run_points(points, objective="area", jobs=1)
        parallel = run_points(points, objective="area", jobs=2)
        assert serial == parallel

    def test_all_policies_parallel_match_serial(self):
        # Bit-identical results across the pool for every assignment
        # policy, not just the ranking sweeps the other tests exercise.
        spec = mcnc_benchmark("fout")
        points = [
            (spec, {"policy": "conventional"}),
            (spec, {"policy": "ranking", "fraction": 0.5}),
            (spec, {"policy": "cfactor", "threshold": 0.55}),
            (spec, {"policy": "complete"}),
        ]
        serial = run_points(points, objective="area", jobs=1)
        parallel = run_points(points, objective="area", jobs=2)
        assert serial == parallel
        assert [r.policy for r in parallel] == [
            "conventional", "ranking", "cfactor", "complete",
        ]

    def test_run_flow_task_trampoline(self):
        spec = mcnc_benchmark("fout")
        result = _run_flow_task((spec, "ranking", {"fraction": 0.5, "objective": "area"}))
        assert result.policy == "ranking"
        assert result.parameter == 0.5

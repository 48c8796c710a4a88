"""Tests for the warm worker pool (repro.perf.pool)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.perf import get_pool, shutdown_pool
from repro.perf.pool import (
    WorkerTaskError,
    available_cpus,
    executor_config,
    resolve_jobs,
)


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Pool lifecycle is under test here: isolate every test from pools
    other tests (or other modules) left warm."""
    shutdown_pool()
    yield
    shutdown_pool()


# Worker-side callables must be module-level to pickle.


def _pid(_: int) -> int:
    return os.getpid()


def _boom_at_three(x: int) -> int:
    if x == 3:
        raise ValueError(f"cannot process {x}")
    return x


def _identity(x: int) -> int:
    return x


class TestResolveJobs:
    def test_auto_resolves_to_cpu_count(self):
        assert resolve_jobs("auto") == available_cpus()

    def test_numeric_strings_parse(self):
        assert resolve_jobs("4") == 4
        assert resolve_jobs(" 2 ") == 2

    def test_capped_by_points(self):
        assert resolve_jobs(8, points=3) == 3
        assert resolve_jobs("auto", points=1) == 1

    def test_floored_at_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-5) == 1
        assert resolve_jobs(4, points=0) == 1

    def test_invalid_string_raises(self):
        with pytest.raises(ValueError, match="auto"):
            resolve_jobs("many")
        with pytest.raises(ValueError):
            resolve_jobs("4.5")


class TestWarmPoolLifecycle:
    def test_workers_persist_across_map_calls(self):
        pool = get_pool(2)
        first = set(pool.map(_pid, list(range(8)), 2))
        second = set(pool.map(_pid, list(range(8)), 2))
        assert first  # ran in worker processes...
        assert os.getpid() not in first
        assert second <= first  # ...and the same ones served both calls

    def test_get_pool_reuses_and_grows(self):
        pool = get_pool(1)
        assert get_pool(1) is pool
        grown = get_pool(2)
        assert grown is pool
        assert grown.size == 2

    def test_shutdown_then_get_respawns(self):
        pool = get_pool(1)
        shutdown_pool()
        assert pool.closed
        fresh = get_pool(1)
        assert fresh is not pool
        assert fresh.map(_identity, [1, 2, 3], 1) == [1, 2, 3]


class TestErrorHandling:
    def test_error_cancels_queued_and_pool_survives(self):
        pool = get_pool(2)
        with pytest.raises(WorkerTaskError) as excinfo:
            pool.map(_boom_at_three, list(range(60)), 2)
        assert excinfo.value.index == 3
        assert "ValueError" in excinfo.value.message
        # The pool stays usable: the next map drains stale results and
        # returns correct, complete output.
        assert pool.map(_identity, list(range(10)), 2) == list(range(10))
        assert not pool.closed

    def test_unpicklable_task_raises_and_pool_survives(self):
        # Tasks are pickled in the parent: a lambda halfway through the
        # sweep raises from map() instead of vanishing in the queue's
        # feeder thread and leaving map() waiting forever.
        pool = get_pool(2)
        tasks = [*range(10), lambda: None, *range(11, 20)]
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pool.map(_identity, tasks, 2)
        assert pool.map(_identity, list(range(10)), 2) == list(range(10))
        assert not pool.closed


class TestBoundedWindow:
    def test_in_flight_chunks_stay_within_window(self):
        pool = get_pool(2)
        pool.map(_identity, list(range(300)), 2)
        assert 0 < pool.last_max_in_flight <= max(2, 2 * 2)


class TestExecutorConfig:
    def test_reports_resolved_configuration(self):
        config = executor_config("auto")
        assert set(config) == {"start_method", "cpus", "workers",
                               "resolved_jobs"}
        assert config["cpus"] == available_cpus()
        assert config["resolved_jobs"] == available_cpus()

    def test_reports_live_worker_count(self):
        assert executor_config()["workers"] is None
        get_pool(2)
        assert executor_config()["workers"] == 2


_LARGE_PAYLOAD_SCRIPT = """
import numpy as np

from repro.perf import get_pool

array = np.arange(8192, dtype=np.float64)  # 64 KiB
pool = get_pool(2)
total = float(array.sum())
assert pool.map(np.sum, [array, array + 1.0], 2) == [total, total + 8192]
"""


class TestCleanExit:
    def test_large_payloads_round_trip_and_exit_silently(self):
        # A 64 KiB array as a task: the results are right, and neither
        # the parent nor a worker prints an ignored exception or a
        # traceback at interpreter exit.
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-c", _LARGE_PAYLOAD_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Exception ignored" not in completed.stderr
        assert "Traceback" not in completed.stderr

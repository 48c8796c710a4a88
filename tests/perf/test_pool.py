"""Tests for the warm worker pool (repro.perf.pool)."""

import os
import pickle
import select
import signal
import subprocess
import sys
import time
from collections.abc import Sequence
from contextlib import suppress
from pathlib import Path

import pytest

import repro
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.perf import get_pool, shutdown_pool
from repro.perf.pool import (
    WorkerTaskError,
    available_cpus,
    executor_config,
    resolve_jobs,
)


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Pool lifecycle and profile shipping are under test here: isolate
    every test from pools (and a sampler) other tests or modules left."""
    shutdown_pool()
    obs_profile.disable_profiling()
    yield
    obs_profile.disable_profiling()
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


def _exit_or_sleep(task) -> int:
    """Task 0 kills its worker process; every other task sleeps."""
    index, seconds = task
    if index == 0:
        os._exit(1)
    time.sleep(seconds)
    return index


def _spin(seconds: float) -> int:
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(100))
    return total


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


class TestWorkerDeath:
    @pytest.mark.parametrize("tasks", [
        # The survivor alone would need 12 s for the rest of the sweep.
        pytest.param([(0, 0.0)] + [(i, 0.25) for i in range(1, 49)],
                     id="short-tasks"),
        # Eight 3 s tasks behind the death: the error must not wait for
        # the survivor to finish the task it is running.
        pytest.param([(0, 0.0)] + [(i, 3.0) for i in range(1, 9)],
                     id="long-tasks"),
    ])
    def test_dead_worker_raises_before_survivor_drains(self, tasks):
        # Task 0 kills its worker: the map raises as soon as the death is
        # noticed, not after the survivor has drained its queue.
        pool = get_pool(2)
        assert pool.map(_identity, [0, 1], 2) == [0, 1]
        deaths = obs_metrics.counter("pool.worker_deaths").value
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="died unexpectedly"):
            pool.map(_exit_or_sleep, tasks, 2)
        assert time.perf_counter() - start < 2.0
        assert obs_metrics.counter("pool.worker_deaths").value == deaths + 1
        assert pool.closed
        fresh = get_pool(2)
        assert fresh is not pool
        assert fresh.map(_identity, list(range(10)), 2) == list(range(10))


class _ReadCounter(Sequence):
    """Tasks ``0 .. count-1`` that record how many the pool has read."""

    def __init__(self, count: int):
        self.count = count
        self.read = 0

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> int:
        if not 0 <= index < self.count:
            raise IndexError(index)
        self.read = max(self.read, index + 1)
        return index


class TestBoundedWindow:
    def test_in_flight_chunks_stay_within_window(self):
        # At each completion, the tasks read from the sequence minus those
        # completed before it were in flight; never more than the window.
        pool = get_pool(2)
        tasks = _ReadCounter(300)
        in_flight = []
        results = pool.map(
            _identity, tasks, 2,
            progress=lambda done, _: in_flight.append(tasks.read - done + 1),
        )
        assert results == list(range(300))
        assert 0 < max(in_flight) <= max(2, 2 * 2)


class TestProfileMerging:
    def test_worker_samples_merged_into_parent(self):
        sampler = obs_profile.enable_profiling(interval=0.002)
        pool = get_pool(2)
        pool.map(_spin, [0.4, 0.4])
        counts = obs_profile.disable_profiling()
        joined = "\n".join(counts)
        assert "_spin" in joined, "no worker frames in merged profile"
        assert sampler.samples > 0

    def test_unprofiled_map_ships_no_samples(self):
        pool = get_pool(2)
        pool.map(_spin, [0.05, 0.05])
        assert obs_profile.current_sampler() is None


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


_INTERRUPT_SCRIPT = """
import time

from repro.perf import get_pool

pool = get_pool(2)
pool.map(abs, [0] * 4, 2)
print("mapping", flush=True)
pool.map(time.sleep, [20] * 4, 2)
"""

_IMPORT_SCRIPT = """
import sys

import repro.flows.sweep

assert "concurrent.futures" not in sys.modules
"""


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return env


class TestInterrupt:
    def test_ctrl_c_terminates_running_tasks(self):
        # Ctrl-C (SIGINT to the whole process group) during a map of 20 s
        # tasks: the workers ignore it, and the parent terminates them
        # instead of waiting for their tasks at exit.  The child runs in
        # its own session so that the group can be killed afterwards.
        child = subprocess.Popen(
            [sys.executable, "-c", _INTERRUPT_SCRIPT], env=_child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            ready, _, _ = select.select([child.stdout], [], [], 60)
            assert ready and child.stdout.readline().strip() == "mapping"
            time.sleep(0.5)  # both workers are inside their sleep
            start = time.perf_counter()
            os.killpg(child.pid, signal.SIGINT)
            child.wait(timeout=30)
            elapsed = time.perf_counter() - start
        finally:
            with suppress(ProcessLookupError):
                os.killpg(child.pid, signal.SIGKILL)
            child.communicate(timeout=30)
        assert child.returncode != 0
        assert elapsed < 3.0


class TestLazyImport:
    def test_sweep_import_does_not_load_concurrent_futures(self):
        # A serial run never builds the pool, so it never pays for
        # importing concurrent.futures.
        completed = subprocess.run(
            [sys.executable, "-c", _IMPORT_SCRIPT], env=_child_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr

"""Warm worker pool: the process-wide executor behind parallel sweeps.

The pool carries the paper's evaluation points: the point sets of
:mod:`repro.flows.sweep`, each point one independent flow run of 50 ms
to a few seconds.  A cold ``ProcessPoolExecutor`` per sweep loses to
serial on anything but long sweeps, because every call pays process
spawn and a full import of numpy + this package per worker.  So this
module keeps one ``ProcessPoolExecutor`` per process, whose workers live
across successive :meth:`WarmPool.map` calls.  They start with
forkserver where the platform has it (the fork server imports
:mod:`repro.flows.sweep` once and every worker inherits it) and with
spawn otherwise; a call asking for more workers replaces the executor
with a larger one.

Each task is one future on the trampoline :func:`_run_task`, which
returns the task's outcome with its metrics delta, tracing spans and
profiler samples; the parent merges these as each future completes.  At
most ``max(2, 2 * jobs)`` tasks are submitted at a time.  Results come
back in input order, a task that raises surfaces as
:class:`WorkerTaskError` with the tasks not yet started cancelled, a
worker that dies closes the pool with a :class:`RuntimeError`, and
Ctrl-C terminates the workers.  ``concurrent.futures`` is imported only
when a pool is built.  See ``docs/performance.md`` for the design notes.
"""

from __future__ import annotations

import atexit
import os
import signal
import traceback as _traceback
from itertools import islice
from typing import Any, Callable, Sequence

import multiprocessing as mp

from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..obs import span
from ..obs import trace as obs_trace

__all__ = [
    "WarmPool", "WorkerTaskError", "available_cpus", "executor_config",
    "get_pool", "resolve_jobs", "shutdown_pool",
]

_PRELOAD_MODULES = ["repro.flows.sweep"]
"""Imported once in the fork server, so every worker starts warm."""

WINDOW_TASKS_PER_WORKER = 2
"""Submitted-task window per requested worker (bounded-memory feed)."""


# --------------------------------------------------------------- job sizing


def available_cpus() -> int:
    """CPUs this process may run on (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_jobs(jobs: int | str, points: int | None = None) -> int:
    """Resolve a ``--jobs`` value to a concrete worker count.

    ``"auto"`` resolves to :func:`available_cpus`; numeric strings parse
    as integers.  The result is capped by *points* (spawning more workers
    than tasks only costs memory) and floored at 1.

    Raises:
        ValueError: for non-numeric strings other than ``auto``.
    """
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            resolved = available_cpus()
        else:
            try:
                resolved = int(text)
            except ValueError:
                raise ValueError(
                    f"jobs must be an integer or 'auto', got {jobs!r}"
                ) from None
    else:
        resolved = int(jobs)
    if points is not None:
        resolved = min(resolved, max(1, points))
    return max(1, resolved)


def _start_method() -> str:
    """forkserver where the platform has it, spawn otherwise."""
    methods = mp.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


# ------------------------------------------------------------------- worker


def _ignore_sigint() -> None:
    """Worker initializer: Ctrl-C is the parent's to handle."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _run_task(func: Callable[[Any], Any], index: int, task: Any,
              traced: bool, profiled: bool) -> tuple:
    """Run one task in a worker; return its outcome and obs delta."""
    tracer = obs_trace.enable_tracing() if traced else None
    sampler = obs_profile.StackSampler().start() if profiled else None
    try:
        with obs_metrics.delta_capture() as delta:
            try:
                with span("sweep.point", index=index):
                    outcome = ("ok", func(task))
            except Exception as exc:  # noqa: BLE001 - to the parent
                message = f"{type(exc).__name__}: {exc}"
                outcome = ("error", message, _traceback.format_exc())
    finally:
        if traced:
            obs_trace.disable_tracing()
    records = tracer.snapshot(clear=True) if tracer is not None else []
    samples = sampler.stop() if sampler is not None else None
    return outcome, delta, records, samples


# -------------------------------------------------------------------- parent


class WorkerTaskError(RuntimeError):
    """A task raised inside a pool worker.

    Attributes:
        index: position of the failing task in the submitted sequence.
        message: ``TypeName: str(exc)`` of the worker-side exception.
        worker_traceback: the worker's formatted traceback.
    """

    def __init__(self, index: int, message: str, worker_traceback: str):
        self.index = index
        self.message = message
        self.worker_traceback = worker_traceback
        super().__init__(f"task {index} failed in pool worker: {message}")


class WarmPool:
    """A persistent ``ProcessPoolExecutor`` whose workers outlive each map."""

    def __init__(self, workers: int):
        self.start_method = _start_method()
        self.closed = False
        self._start(max(1, workers))

    def _start(self, workers: int) -> None:
        from concurrent.futures import ProcessPoolExecutor

        ctx = mp.get_context(self.start_method)
        if self.start_method == "forkserver":
            ctx.set_forkserver_preload(_PRELOAD_MODULES)
        self._executor = ProcessPoolExecutor(workers, mp_context=ctx,
                                             initializer=_ignore_sigint)
        self.size = workers
        obs_metrics.counter("pool.worker_spawns").inc(workers)

    def ensure_workers(self, count: int) -> None:
        """Grow the pool to at least *count* workers (never shrinks)."""
        if count > self.size:
            self._executor.shutdown(cancel_futures=True)
            self._start(count)

    def shutdown(self) -> None:
        """Stop every worker; tasks not yet started are cancelled."""
        if not self.closed:
            self.closed = True
            self._executor.shutdown(cancel_futures=True)

    def _terminate(self) -> None:
        """Kill the workers without waiting for their tasks, then close."""
        # Python 3.14's terminate_workers() does this through the same map.
        for process in list(self._executor._processes.values()):
            process.terminate()
        self.shutdown()

    def map(
        self,
        func: Callable[..., Any],
        tasks: Sequence[Any],
        jobs: int | None = None,
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> list[Any]:
        """Map *func* over *tasks* on the pool; results in input order.

        *jobs* bounds the submitted-task window (defaults to the pool
        size).  *progress* gets a monotonically increasing ``done`` count
        as tasks complete, whatever their completion order.

        Raises:
            WorkerTaskError: a task raised in a worker; tasks not yet
                started are cancelled (running ones finish unobserved).
            RuntimeError: a worker process died; the pool is shut down so
                the next :func:`get_pool` starts fresh.
            pickle.PicklingError / AttributeError / TypeError: a task or
                *func* cannot be pickled; the pool stays usable.
            KeyboardInterrupt: after the workers are terminated.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        jobs = min(jobs or self.size, self.size)
        window = max(2, WINDOW_TASKS_PER_WORKER * jobs)
        traced = obs_trace.is_enabled()
        profiled = obs_profile.is_profiling()
        unsent = enumerate(tasks)
        pending: dict[Any, int] = {}
        results: list[Any] = [None] * len(tasks)
        done = 0
        try:
            while True:
                for index, task in islice(unsent, window - len(pending)):
                    future = self._executor.submit(_run_task, func, index,
                                                   task, traced, profiled)
                    pending[future] = index
                    obs_metrics.counter("pool.dispatched_tasks").inc()
                if not pending:
                    return results
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in sorted(finished, key=pending.__getitem__):
                    index = pending.pop(future)
                    outcome, delta, records, samples = future.result()
                    obs_metrics.merge_snapshot(delta)
                    tracer = obs_trace.current_tracer()
                    if tracer is not None and records:
                        tracer.ingest(records)
                    sampler = obs_profile.current_sampler()
                    if sampler is not None and samples:
                        sampler.merge(samples)
                    if outcome[0] != "ok":
                        raise WorkerTaskError(index, outcome[1], outcome[2])
                    results[index] = outcome[1]
                    done += 1
                    obs_metrics.counter("pool.completed_tasks").inc()
                    if progress is not None:
                        progress(done, len(tasks))
        except BrokenProcessPool as exc:
            obs_metrics.counter("pool.worker_deaths").inc()
            self.shutdown()
            raise RuntimeError("a warm-pool worker died unexpectedly; "
                               "pool has been shut down") from exc
        except Exception:
            for future in pending:
                if future.cancel():
                    obs_metrics.counter("pool.cancelled_tasks").inc()
            raise
        except BaseException:
            self._terminate()
            raise


# --------------------------------------------------------------- module state

_pool: WarmPool | None = None


def get_pool(workers: int) -> WarmPool:
    """The process-wide pool, grown to at least *workers* workers."""
    global _pool
    if _pool is None or _pool.closed:
        _pool = WarmPool(workers)
    else:
        _pool.ensure_workers(workers)
    return _pool


def shutdown_pool() -> None:
    """Stop the process-wide pool (it respawns on next use)."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


# A pool still live at interpreter teardown would be collected after
# ``concurrent.futures.process`` has lost its module globals.
atexit.register(shutdown_pool)


def executor_config(jobs: int | str | None = None) -> dict[str, Any]:
    """Start method, CPUs and worker counts, for ``repro info --json``."""
    live = _pool is not None and not _pool.closed
    return {
        "start_method": _pool.start_method if live else _start_method(),
        "cpus": available_cpus(),
        "workers": _pool.size if live else None,
        "resolved_jobs": resolve_jobs(jobs) if jobs is not None else None,
    }

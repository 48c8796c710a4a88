"""Warm worker pool: the process-wide executor behind parallel sweeps.

The pool carries the paper's evaluation points: the point sets of
:mod:`repro.flows.sweep`, each point one independent flow run of 50 ms
to a few seconds.  A cold ``ProcessPoolExecutor`` per sweep loses to
serial on anything but long sweeps, because every call pays process
spawn and a full import of numpy + this package per worker.  This
module keeps one **warm pool** per process instead:

* **Persistent workers.**  Workers are started once and live across
  successive :meth:`WarmPool.map` calls.  They start with forkserver
  where the platform has it (the heavy imports happen a single time in
  the fork server and every worker inherits them) and with spawn
  otherwise.  A later call asking for more workers grows the pool; it
  never re-pays startup for workers it already has.

* **One task per message.**  The parent pickles each task (with
  :data:`pickle.HIGHEST_PROTOCOL`) as it enqueues it, so an unpicklable
  task raises from :meth:`WarmPool.map` at once instead of being dropped
  by the queue's feeder thread.  Every idle worker pulls from the one
  shared task queue, so a long-tailed point never strands work behind
  it.

* **Bounded in-flight window.**  The parent enqueues at most
  ``max(2, 2 * jobs)`` tasks at a time and tops the window up as
  results return, so a thousand-point sweep never holds every task
  payload resident in the queue at once.

The pool preserves the ordering/error contract callers rely on: results
come back in input order, worker exceptions surface as
:class:`WorkerTaskError` (index + message + formatted worker traceback)
with the remaining queued work cancelled, a worker process that dies is
noticed within about a second and shuts the pool down with a
:class:`RuntimeError`, and each task's observability delta (metrics +
tracing spans + profiler stack samples) is merged into the parent as
the task completes.  See ``docs/performance.md`` for the architecture
notes and the measured traffic.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue as queue_module
import time
import traceback as _traceback
from contextlib import suppress
from typing import Any, Callable, Sequence

import multiprocessing as mp
# Imported before ``atexit.register(shutdown_pool)`` below: atexit hooks
# run last-in first-out, so the pool shuts its workers down before
# multiprocessing's own exit hook unlinks the queues' semaphores, which
# would make a worker that is still starting fail to attach to them.
import multiprocessing.util  # noqa: F401

from ..obs import metrics as obs_metrics
from ..obs import profile as obs_profile
from ..obs import span
from ..obs import trace as obs_trace

__all__ = [
    "WarmPool",
    "WorkerTaskError",
    "available_cpus",
    "executor_config",
    "get_pool",
    "resolve_jobs",
    "shutdown_pool",
]

_PRELOAD_MODULES = ("repro.flows.sweep",)
"""Imported in the fork server / at worker start: pulls in numpy, the
espresso passes, the sim engine and the flow drivers exactly once."""

WINDOW_TASKS_PER_WORKER = 2
"""In-flight task window per requested worker (bounded-memory feed)."""


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


def _warm_imports() -> None:
    for name in _PRELOAD_MODULES:
        with suppress(Exception):
            __import__(name)


def _worker_main(task_queue: Any, result_queue: Any) -> None:
    """Worker loop: pull one task per message, ship its obs delta back."""
    with suppress(Exception):
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
    _warm_imports()
    while True:
        message = task_queue.get()
        if message is None:
            break
        epoch, index, func_bytes, task_bytes, traced, profiled = message
        tracer = obs_trace.enable_tracing() if traced else None
        sampler = obs_profile.StackSampler().start() if profiled else None
        try:
            with obs_metrics.delta_capture() as delta:
                try:
                    func = pickle.loads(func_bytes)
                    task = pickle.loads(task_bytes)
                    with span("sweep.point", index=index):
                        outcome = ("ok", func(task))
                except Exception as exc:  # noqa: BLE001 - to the parent
                    outcome = (
                        "error",
                        f"{type(exc).__name__}: {exc}",
                        _traceback.format_exc(),
                    )
        finally:
            if traced:
                obs_trace.disable_tracing()
        records = tracer.snapshot(clear=True) if tracer is not None else []
        samples = sampler.stop() if sampler is not None else None
        result_queue.put((epoch, index, outcome, delta, records, samples))


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
    """Persistent worker processes draining one shared task queue."""

    def __init__(self, workers: int):
        self.start_method = _start_method()
        self._ctx = mp.get_context(self.start_method)
        if self.start_method == "forkserver":
            with suppress(Exception):
                self._ctx.set_forkserver_preload(list(_PRELOAD_MODULES))
        self._tasks = self._ctx.Queue()
        self._results = self._ctx.Queue()
        self._workers: list[Any] = []
        self._epoch = 0
        self.closed = False
        self.last_max_in_flight = 0
        self._last_liveness_check = 0.0
        self._spawn(max(1, workers))

    # ------------------------------------------------------------ lifecycle

    @property
    def size(self) -> int:
        return len(self._workers)

    def _spawn(self, count: int) -> None:
        for _ in range(count):
            process = self._ctx.Process(
                target=_worker_main,
                args=(self._tasks, self._results),
                daemon=True,
            )
            process.start()
            self._workers.append(process)
        obs_metrics.counter("pool.worker_spawns").inc(count)
        obs_metrics.gauge("pool.workers").set(len(self._workers))

    def ensure_workers(self, count: int) -> None:
        """Grow the pool to at least *count* workers (never shrinks)."""
        if count > len(self._workers):
            self._spawn(count - len(self._workers))

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop every worker and release the queues."""
        if self.closed:
            return
        self.closed = True
        for _ in self._workers:
            with suppress(Exception):
                self._tasks.put(None)
        deadline = time.monotonic() + timeout
        for process in self._workers:
            process.join(max(0.0, deadline - time.monotonic()))
        for process in self._workers:
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        for q in (self._tasks, self._results):
            with suppress(Exception):
                q.cancel_join_thread()
                q.close()
        self._workers.clear()
        obs_metrics.gauge("pool.workers").set(0)

    # ------------------------------------------------------------ execution

    def map(
        self,
        func: Callable[..., Any],
        tasks: Sequence[Any],
        jobs: int | None = None,
        *,
        progress: Callable[[int, int], None] | None = None,
    ) -> list[Any]:
        """Map *func* over *tasks* on the pool; results in input order.

        *jobs* bounds the in-flight window (defaults to the pool size);
        extra idle workers beyond it simply pull from the same queue.
        The *progress* callback fires with a monotonically increasing
        ``done`` count as tasks complete, regardless of completion order.

        Raises:
            WorkerTaskError: a task raised in a worker; queued tasks are
                cancelled first (in-flight ones finish and are discarded
                as stale by the next call).
            RuntimeError: a worker process died; the pool is shut down so
                the next :func:`get_pool` starts fresh.
            pickle.PicklingError / AttributeError / TypeError: a task or
                *func* cannot be pickled; the pool stays usable.
        """
        total = len(tasks)
        if total == 0:
            return []
        jobs = min(jobs or self.size, self.size)
        self._epoch += 1
        epoch = self._epoch
        self._drain_stale()
        traced = obs_trace.is_enabled()
        profiled = obs_profile.is_profiling()
        func_bytes = pickle.dumps(func, protocol=pickle.HIGHEST_PROTOCOL)
        window = max(2, WINDOW_TASKS_PER_WORKER * jobs)
        results: list[Any] = [None] * total
        pending: set[int] = set()
        next_index = 0
        done = 0
        self.last_max_in_flight = 0

        def feed() -> None:
            nonlocal next_index
            while next_index < total and len(pending) < window:
                index = next_index
                # Pickled here, not in the queue's feeder thread: there an
                # unpicklable task would be dropped and map() would hang.
                task_bytes = pickle.dumps(
                    tasks[index], protocol=pickle.HIGHEST_PROTOCOL
                )
                self._tasks.put(
                    (epoch, index, func_bytes, task_bytes, traced, profiled)
                )
                pending.add(index)
                next_index += 1
                self.last_max_in_flight = max(
                    self.last_max_in_flight, len(pending)
                )
                obs_metrics.counter("pool.dispatched_tasks").inc()

        feed()
        while pending:
            msg_epoch, index, outcome, delta, records, samples = \
                self._next_result()
            obs_metrics.merge_snapshot(delta)
            tracer = obs_trace.current_tracer()
            if tracer is not None and records:
                tracer.ingest(records)
            sampler = obs_profile.current_sampler()
            if sampler is not None and samples:
                sampler.merge(samples)
            if msg_epoch != epoch:
                obs_metrics.counter("pool.stale_results").inc()
                continue
            pending.discard(index)
            if outcome[0] != "ok":
                self._cancel_queued()
                raise WorkerTaskError(index, outcome[1], outcome[2])
            results[index] = outcome[1]
            done += 1
            obs_metrics.counter("pool.completed_tasks").inc()
            if progress is not None:
                progress(done, total)
            feed()
        return results

    def _next_result(self) -> tuple:
        """The next task result, checking worker liveness on the way.

        Dead workers are checked about once a second whatever the result
        traffic: checking only when the queue goes idle would report a
        death only after the survivors had drained the sweep.
        """
        while True:
            now = time.monotonic()
            if now - self._last_liveness_check >= 1.0:
                self._last_liveness_check = now
                self._check_dead()
            try:
                return self._results.get(timeout=0.5)
            except queue_module.Empty:
                continue

    def _check_dead(self) -> None:
        dead = [p for p in self._workers if not p.is_alive()]
        if dead:
            obs_metrics.counter("pool.worker_deaths").inc(len(dead))
            self.shutdown()
            raise RuntimeError(
                f"{len(dead)} warm-pool worker(s) died unexpectedly; "
                "pool has been shut down"
            )

    def _cancel_queued(self) -> None:
        """Drop every not-yet-claimed task from the shared queue."""
        with suppress(queue_module.Empty):
            while True:
                self._tasks.get_nowait()
                obs_metrics.counter("pool.cancelled_tasks").inc()

    def _drain_stale(self) -> None:
        """Absorb results of tasks cancelled by a previous call's error."""
        with suppress(queue_module.Empty):
            while True:
                message = self._results.get_nowait()
                with suppress(Exception):
                    obs_metrics.merge_snapshot(message[3])
                obs_metrics.counter("pool.stale_results").inc()


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


atexit.register(shutdown_pool)


def executor_config(jobs: int | str | None = None) -> dict[str, Any]:
    """The resolved executor configuration, for ``repro info --json``.

    Reports the start method and the live/requested worker counts — what
    decides how a ``--jobs N`` sweep actually executes on this machine.
    """
    live = _pool is not None and not _pool.closed
    return {
        "start_method": _pool.start_method if live else _start_method(),
        "cpus": available_cpus(),
        "workers": _pool.size if live else None,
        "resolved_jobs": resolve_jobs(jobs) if jobs is not None else None,
    }

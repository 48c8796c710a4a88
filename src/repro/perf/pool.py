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

* **Worker health.**  Every worker runs a heartbeat thread while it is
  executing a task, shipping ``(rss, tasks done, busy-since)`` beats
  over the result queue; the parent folds them into ``pool.worker.*``
  gauges and a stall detector flags any worker stuck on one task past
  :func:`stall_threshold_seconds` — surfaced on the progress line and
  in the telemetry ledger (see :func:`health_snapshot`) instead of
  silently hanging the sweep.

The pool preserves the ordering/error contract callers rely on: results
come back in input order, worker exceptions surface as
:class:`WorkerTaskError` (index + message + formatted worker traceback)
with the remaining queued work cancelled, and each task's observability
delta (metrics + tracing spans + profiler stack samples) is merged into
the parent as the task completes.  See ``docs/performance.md`` for the
architecture notes and the measured traffic.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue as queue_module
import threading
import time
import traceback as _traceback
from contextlib import suppress
from dataclasses import dataclass
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
    "WorkerHealth",
    "WorkerTaskError",
    "available_cpus",
    "executor_config",
    "get_pool",
    "health_snapshot",
    "resolve_jobs",
    "shutdown_pool",
    "stall_threshold_seconds",
]

_PRELOAD_MODULES = ("repro.flows.sweep",)
"""Imported in the fork server / at worker start: pulls in numpy, the
espresso passes, the sim engine and the flow drivers exactly once."""

WINDOW_TASKS_PER_WORKER = 2
"""In-flight task window per requested worker (bounded-memory feed)."""

HEARTBEAT_INTERVAL_SECONDS = 0.25
"""How often a busy worker ships a heartbeat over the result queue.
Beats only flow while a task is executing, so idle workers never
flood the queue between maps."""

DEFAULT_STALL_SECONDS = 5.0
"""A worker busy on one task longer than this is flagged as stalled
(override with ``REPRO_POOL_STALL_SECONDS``)."""


def stall_threshold_seconds() -> float:
    """The stall-detection threshold, honouring the env override."""
    raw = os.environ.get("REPRO_POOL_STALL_SECONDS", "")
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_STALL_SECONDS
    return value if value > 0 else DEFAULT_STALL_SECONDS


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


def _rss_bytes() -> int:
    """This process's resident set size, best effort (0 when unknown)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGESIZE") or 4096)
    except (OSError, ValueError, IndexError):
        pass
    try:  # pragma: no cover - non-/proc platforms
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover
        return 0


class _WorkerState:
    """Shared (GIL-guarded) task progress read by the heartbeat thread."""

    __slots__ = ("tasks_done", "busy_since", "current_index")

    def __init__(self) -> None:
        self.tasks_done = 0
        self.busy_since: float | None = None
        self.current_index: int | None = None


def _heartbeat_loop(result_queue: Any, state: _WorkerState,
                    stop: threading.Event) -> None:
    """Ship ``("hb", ...)`` beats while the worker is executing a task."""
    pid = os.getpid()
    while not stop.wait(HEARTBEAT_INTERVAL_SECONDS):
        if state.busy_since is None:
            continue
        with suppress(Exception):
            result_queue.put((
                "hb", pid, time.time(), _rss_bytes(), state.tasks_done,
                state.busy_since, state.current_index,
            ))


def _worker_main(task_queue: Any, result_queue: Any) -> None:
    """Worker loop: pull one task per message, ship its obs delta back."""
    with suppress(Exception):
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
    _warm_imports()
    state = _WorkerState()
    heartbeat_stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop, args=(result_queue, state, heartbeat_stop),
        name="repro-pool-heartbeat", daemon=True,
    ).start()
    while True:
        message = task_queue.get()
        if message is None:
            heartbeat_stop.set()
            break
        _, epoch, index, func_bytes, task_bytes, traced, profiled = message
        tracer = obs_trace.enable_tracing() if traced else None
        sampler = obs_profile.StackSampler().start() if profiled else None
        state.current_index = index
        state.busy_since = time.time()
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
            state.busy_since = None
            state.current_index = None
            state.tasks_done += 1
            if traced:
                obs_trace.disable_tracing()
        records = tracer.snapshot(clear=True) if tracer is not None else []
        samples = sampler.stop() if sampler is not None else None
        result_queue.put((
            "done", epoch, index, outcome, delta, records, samples,
            (os.getpid(), _rss_bytes(), state.tasks_done),
        ))


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


@dataclass
class WorkerHealth:
    """Last-known health of one pool worker, parent-side.

    Attributes:
        pid: the worker process id.
        last_seen: parent wall-clock time of the latest beat or result.
        rss_bytes / tasks_done: the worker's latest self-report.
        busy_since: worker wall-clock start of the task it is running
            (None while idle between tasks).
        current_index: the task index it is running, when busy.
        stalled: True while the stall detector has the worker flagged.
        stall_count: how many times this worker has been flagged.
    """

    pid: int
    last_seen: float = 0.0
    rss_bytes: int = 0
    tasks_done: int = 0
    busy_since: float | None = None
    current_index: int | None = None
    stalled: bool = False
    stall_count: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "last_seen": self.last_seen,
            "rss_bytes": self.rss_bytes,
            "tasks_done": self.tasks_done,
            "stalled": self.stalled,
            "stall_count": self.stall_count,
        }


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
        self.health: dict[int, WorkerHealth] = {}
        self.stall_events: list[dict[str, Any]] = []
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
                    ("task", epoch, index, func_bytes, task_bytes, traced,
                     profiled)
                )
                pending.add(index)
                next_index += 1
                self.last_max_in_flight = max(
                    self.last_max_in_flight, len(pending)
                )
                obs_metrics.counter("pool.dispatched_tasks").inc()

        feed()
        while pending:
            message = self._next_result(progress)
            _, msg_epoch, index, outcome, delta, records, samples, health \
                = message
            obs_metrics.merge_snapshot(delta)
            tracer = obs_trace.current_tracer()
            if tracer is not None and records:
                tracer.ingest(records)
            sampler = obs_profile.current_sampler()
            if sampler is not None and samples:
                sampler.merge(samples)
            self._note_result_health(health)
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

    def _next_result(self, progress: Any = None) -> tuple:
        """The next task result, absorbing heartbeats along the way.

        Liveness (dead workers) and stalls are checked about once a
        second regardless of message traffic — heartbeats from healthy
        workers must not starve the detector that notices an unhealthy
        one.
        """
        while True:
            now = time.monotonic()
            if now - self._last_liveness_check >= 1.0:
                self._last_liveness_check = now
                self._check_dead()
                self._check_stalls(progress)
            try:
                message = self._results.get(timeout=0.5)
            except queue_module.Empty:
                continue
            if message[0] == "hb":
                self._note_heartbeat(message)
                continue
            return message

    def _check_dead(self) -> None:
        dead = [p for p in self._workers if not p.is_alive()]
        if dead:
            obs_metrics.counter("pool.worker_deaths").inc(len(dead))
            self.shutdown()
            raise RuntimeError(
                f"{len(dead)} warm-pool worker(s) died unexpectedly; "
                "pool has been shut down"
            )

    # ------------------------------------------------------------ health

    def _health_entry(self, pid: int) -> WorkerHealth:
        entry = self.health.get(pid)
        if entry is None:
            entry = WorkerHealth(pid=pid)
            self.health[pid] = entry
        return entry

    def _note_heartbeat(self, message: tuple) -> None:
        _, pid, _worker_now, rss, tasks_done, busy_since, index = message
        entry = self._health_entry(pid)
        entry.last_seen = time.time()
        entry.rss_bytes = rss
        entry.tasks_done = tasks_done
        entry.busy_since = busy_since
        entry.current_index = index
        self._publish_health(entry)

    def _note_result_health(self, health: tuple | None) -> None:
        if not health:
            return
        pid, rss, tasks_done = health
        entry = self._health_entry(pid)
        entry.last_seen = time.time()
        entry.rss_bytes = rss
        entry.tasks_done = tasks_done
        entry.busy_since = None
        entry.current_index = None
        if entry.stalled:
            entry.stalled = False
            self._publish_stalled_count()
        self._publish_health(entry)

    def _publish_health(self, entry: WorkerHealth) -> None:
        prefix = f"pool.worker.{entry.pid}"
        obs_metrics.gauge(f"{prefix}.rss_bytes").set(entry.rss_bytes)
        obs_metrics.gauge(f"{prefix}.tasks_done").set(entry.tasks_done)
        obs_metrics.gauge(f"{prefix}.last_seen").set(entry.last_seen)

    def _publish_stalled_count(self) -> None:
        stalled = sum(1 for entry in self.health.values() if entry.stalled)
        obs_metrics.gauge("pool.workers_stalled").set(stalled)

    def _check_stalls(self, progress: Any = None) -> None:
        """Flag workers stuck on one task past the stall threshold.

        Detection relies on the heartbeat's ``busy_since``: the beat
        thread keeps running even while the task blocks (sleep, lock,
        native call), so a stalled worker keeps reporting how long it
        has been stuck.  Flagging never interrupts the task — the sweep
        keeps draining other workers' results, and a recovered worker
        (its task finally completes) is unflagged.
        """
        threshold = stall_threshold_seconds()
        now = time.time()
        changed = False
        for entry in self.health.values():
            busy_for = (now - entry.busy_since) if entry.busy_since else 0.0
            is_stalled = entry.busy_since is not None and busy_for > threshold
            if is_stalled and not entry.stalled:
                entry.stalled = True
                entry.stall_count += 1
                changed = True
                obs_metrics.counter("pool.worker_stalls").inc()
                self.stall_events.append({
                    "pid": entry.pid,
                    "task_index": entry.current_index,
                    "busy_seconds": busy_for,
                    "threshold_seconds": threshold,
                    "detected_at": now,
                })
            elif not is_stalled and entry.stalled:
                entry.stalled = False
                changed = True
        if changed:
            self._publish_stalled_count()
            set_note = getattr(progress, "set_note", None)
            if set_note is not None:
                stalled = [e for e in self.health.values() if e.stalled]
                if stalled:
                    worst = max(
                        stalled,
                        key=lambda e: now - (e.busy_since or now),
                    )
                    set_note(
                        f"{len(stalled)} worker(s) stalled: pid {worst.pid} "
                        f"on task {worst.current_index} for "
                        f"{now - (worst.busy_since or now):.0f}s"
                    )
                else:
                    set_note(None)

    def health_report(self) -> dict[str, Any]:
        """Worker health + stall events, ledger-ready."""
        return {
            "workers": [
                entry.to_dict()
                for entry in sorted(self.health.values(), key=lambda e: e.pid)
            ],
            "stall_events": list(self.stall_events),
        }

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
                if message and message[0] == "hb":
                    self._note_heartbeat(message)
                    continue
                with suppress(Exception):
                    obs_metrics.merge_snapshot(message[4])
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


def health_snapshot() -> dict[str, Any] | None:
    """Worker health + stall events of the live pool, or None.

    Consumed by :class:`repro.obs.session.ObsSession` when finalising a
    ledger row, so a sweep's worker fleet (and any stalls it hit) is
    recorded alongside the run's metrics.
    """
    if _pool is None or not _pool.health:
        return None
    return _pool.health_report()


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

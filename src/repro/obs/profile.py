"""Sampling profiler: periodic stack capture, folded-stack output.

A :class:`StackSampler` runs a daemon thread that wakes every few
milliseconds, grabs the target thread's current Python stack via
``sys._current_frames()`` and counts it.  No tracing hooks, no
per-call overhead on the profiled code — the cost is one stack walk per
sample, so a production sweep can run with ``--profile`` enabled at a
few percent overhead.

Output is the *collapsed stack* ("folded") format every flamegraph tool
reads — one ``frame;frame;frame count`` line per distinct stack — plus
a top-functions table (self and total samples per function) that the
CLI prints and the telemetry ledger stores.

Cross-process profiles: when the parent enables profiling, the warm
worker pool of :mod:`repro.perf.pool` starts a sampler around each task
in the worker and ships the counts back with the task's result —
exactly how metrics deltas and trace records already travel — and the
parent :meth:`StackSampler.merge`\\ s them.  A ``--profile`` sweep at
``--jobs 4`` therefore shows where the *fleet* spent its time, with the
parent's own stacks (mostly waits for results) alongside worker flow frames.

The module-level :func:`enable_profiling` / :func:`disable_profiling`
pair mirrors the tracer's API and is what
:class:`~repro.obs.session.ObsSession` drives from ``--profile FILE``.
"""

from __future__ import annotations

import os
import sys
import threading
from typing import Any

__all__ = [
    "StackSampler",
    "current_sampler",
    "disable_profiling",
    "enable_profiling",
    "is_profiling",
    "top_functions",
]

DEFAULT_INTERVAL_SECONDS = 0.005
"""Sampling period: 200 Hz keeps overhead low while resolving
millisecond-scale stages."""

MAX_STACK_DEPTH = 128
"""Frames kept per sample; deeper stacks are truncated at the root."""


def _frame_label(frame: Any) -> str:
    """``module:qualname`` for one frame (the folded-stack token)."""
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    qualname = getattr(code, "co_qualname", code.co_name)
    return f"{module}:{qualname}"


class StackSampler:
    """Sample the main thread's Python stack on a fixed interval.

    The main thread is where CLI commands and pool worker tasks run.

    Args:
        interval: seconds between samples.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL_SECONDS):
        self.interval = interval
        self.target_ident = threading.main_thread().ident
        self.counts: dict[str, int] = {}
        self.samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------ sampling

    def _run(self) -> None:
        while not self._stop.is_set():
            frames = sys._current_frames()
            frame = frames.get(self.target_ident)  # type: ignore[arg-type]
            del frames  # drop refs to every other thread's live frame
            if frame is not None:
                stack: list[str] = []
                while frame is not None and len(stack) < MAX_STACK_DEPTH:
                    stack.append(_frame_label(frame))
                    frame = frame.f_back
                del frame
                key = ";".join(reversed(stack))
                self.counts[key] = self.counts.get(key, 0) + 1
                self.samples += 1
            self._stop.wait(self.interval)

    def start(self) -> "StackSampler":
        """Begin sampling (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-profiler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> dict[str, int]:
        """Stop sampling and return the accumulated stack counts."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        return self.counts

    # ------------------------------------------------------------- merging

    def merge(self, counts: dict[str, int]) -> None:
        """Fold another sampler's counts (e.g. a pool worker's) in."""
        for stack, count in counts.items():
            self.counts[stack] = self.counts.get(stack, 0) + count
            self.samples += count

    # ------------------------------------------------------------- exports

    def folded_lines(self) -> list[str]:
        """Collapsed-stack lines (``a;b;c 12``), sorted by stack."""
        return [
            f"{stack} {count}" for stack, count in sorted(self.counts.items())
        ]

    def write_folded(self, path: str | os.PathLike) -> None:
        """Write the collapsed stacks to *path* (flamegraph input)."""
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.folded_lines():
                handle.write(line)
                handle.write("\n")

    def summary(self, top: int = 15) -> dict[str, Any]:
        """The ledger/CLI summary: totals plus the top-functions table."""
        return {
            "interval_seconds": self.interval,
            "samples": self.samples,
            "distinct_stacks": len(self.counts),
            "top": top_functions(self.counts, top),
        }


def top_functions(
    counts: dict[str, int], limit: int = 15
) -> list[dict[str, Any]]:
    """Per-function self/total sample counts, hottest (by self) first.

    *total* counts a sample once per function present anywhere in its
    stack (inclusive time); *self* counts only leaf frames (exclusive
    time) — the two columns of every profiler's flat view.
    """
    self_counts: dict[str, int] = {}
    total_counts: dict[str, int] = {}
    for stack, count in counts.items():
        frames = stack.split(";")
        if not frames:
            continue
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
        for function in set(frames):
            total_counts[function] = total_counts.get(function, 0) + count
    ranked = sorted(
        total_counts,
        key=lambda fn: (-self_counts.get(fn, 0), -total_counts[fn], fn),
    )
    return [
        {
            "function": function,
            "self_samples": self_counts.get(function, 0),
            "total_samples": total_counts[function],
        }
        for function in ranked[:limit]
    ]


# ------------------------------------------------------------ module state

_active: StackSampler | None = None


def enable_profiling(
    interval: float = DEFAULT_INTERVAL_SECONDS,
) -> StackSampler:
    """Start (and install) the process-wide sampler.

    The warm pool checks :func:`is_profiling` when dispatching tasks, so
    enabling here also turns on worker-side sampling for subsequent
    parallel maps.
    """
    global _active
    if _active is None:
        _active = StackSampler(interval).start()
    return _active


def disable_profiling() -> dict[str, int]:
    """Stop the process-wide sampler; returns its stack counts."""
    global _active
    if _active is None:
        return {}
    counts = _active.stop()
    _active = None
    return counts


def is_profiling() -> bool:
    """True while the process-wide sampler is running."""
    return _active is not None


def current_sampler() -> StackSampler | None:
    """The active process-wide sampler, or None."""
    return _active

"""A process-wide metrics registry of counters.

Instrumented code asks the registry for a named counter each time it
records — ``metrics.counter("espresso.calls").inc()`` — so a single dict
lookup is the steady-state cost.  Counters are the one instrument kind:
monotonically increasing totals (calls, cubes, cache hits, seconds),
which is what lets every consumer merge and diff them by plain
arithmetic.

Snapshots (:func:`metrics_snapshot`) are plain JSON-ready dicts of
``{name: {"type": "counter", "value": v}}``; worker processes of
:func:`repro.flows.sweep.run_points` send snapshot *deltas*
(:func:`diff_snapshots`) back with each result and the parent
:func:`merge_snapshot`\\ s them, so ``--metrics-out`` reflects work done
in every process of a parallel sweep.

Naming convention: dotted lowercase ``subsystem.noun`` (see
``docs/observability.md`` for the registry of names in use).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "Counter",
    "MetricsRegistry",
    "counter",
    "delta_capture",
    "diff_snapshots",
    "global_registry",
    "merge_snapshot",
    "metrics_snapshot",
    "reset_metrics",
]


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add *amount* (default 1) to the total."""
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class MetricsRegistry:
    """Named counters, snapshot/merge aware."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def snapshot(self) -> dict[str, Any]:
        """All current counter values as a JSON-ready dict."""
        return {
            name: counter.to_dict()
            for name, counter in sorted(self._counters.items())
        }

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a snapshot (e.g. a worker's delta) into this registry.

        Each counter adds the incoming value.
        """
        for name, data in snapshot.items():
            self.counter(name).inc(data["value"])

    def reset(self) -> None:
        """Zero every counter.

        Names stay registered, so a counter created up front to be
        listed at 0 (such as ``cache.hits``) stays listed.
        """
        for counter in self._counters.values():
            counter.value = 0


def diff_snapshots(
    end: dict[str, Any], start: dict[str, Any], *, keep_zero: bool = False
) -> dict[str, Any]:
    """The work done between two snapshots of the *same* registry.

    Each counter subtracts.  Used by pool workers, whose process (and
    its caches/counters) outlives a single task: the delta attributes
    each task only the work it caused.

    Zero-valued deltas are dropped by default to keep worker payloads
    small; pass ``keep_zero=True`` when the consumer wants a stable key
    set (e.g. the ``--metrics-out`` document, where ``cache.hits: 0`` is
    information).
    """
    delta: dict[str, Any] = {}
    for name, data in end.items():
        before = start.get(name)
        value = data["value"] - (before["value"] if before else 0)
        if value or keep_zero:
            delta[name] = {"type": "counter", "value": value}
    return delta


@contextmanager
def delta_capture() -> Iterator[dict[str, Any]]:
    """Capture the metrics delta of a block of work.

    Yields an (initially empty) dict that is filled with the
    :func:`diff_snapshots` delta of the process-wide registry around the
    block — the pattern pool workers use to attribute each task only
    the work it caused, however long the worker has lived::

        with delta_capture() as delta:
            run_task()
        ship(delta)  # the counters of the task only

    The dict is populated when the block exits (including on exception),
    so read it only after the ``with`` statement.
    """
    holder: dict[str, Any] = {}
    before = metrics_snapshot()
    try:
        yield holder
    finally:
        holder.update(diff_snapshots(metrics_snapshot(), before))


global_registry = MetricsRegistry()
"""The process-wide registry used by all built-in instrumentation."""


def counter(name: str) -> Counter:
    """``global_registry.counter`` — the usual way to record a count."""
    return global_registry.counter(name)


def metrics_snapshot() -> dict[str, Any]:
    """Snapshot of the process-wide registry."""
    return global_registry.snapshot()


def merge_snapshot(snapshot: dict[str, Any]) -> None:
    """Merge a (worker) snapshot into the process-wide registry."""
    global_registry.merge_snapshot(snapshot)


def reset_metrics() -> None:
    """Zero every counter in the process-wide registry."""
    global_registry.reset()

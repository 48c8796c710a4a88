"""A process-wide metrics registry: counters, gauges, histograms.

Instrumented code asks the registry for a named instrument each time it
records — ``metrics.counter("espresso.calls").inc()`` — so a single dict
lookup is the steady-state cost and disabling the registry
(:func:`configure_metrics`) swaps every lookup for a shared no-op
instrument.  Three instrument kinds:

* :class:`Counter` — monotonically increasing totals (calls, cubes,
  cache hits).  Merged across processes by summing.
* :class:`Gauge` — last-written point-in-time values (entries in a
  cache, nodes in a manager).  Merged by taking the incoming value.
* :class:`Histogram` — fixed-bucket distributions (iterations per
  espresso call).  Merged by summing per-bucket counts.

Snapshots (:func:`metrics_snapshot`) are plain JSON-ready dicts; worker
processes in :func:`repro.flows.sweep.parallel_map` send snapshot
*deltas* (:func:`diff_snapshots`) back with each result and the parent
:func:`merge_snapshot`\\ s them, so ``--metrics-out`` reflects work done
in every process of a parallel sweep.

Components that keep their own counters (e.g. the minimisation cache in
:mod:`repro.perf.cache`) register a *collector* — a callable returning
metric dicts — and are folded into every snapshot without paying for a
registry call on their hot paths.

Naming convention: dotted lowercase ``subsystem.noun`` (see
``docs/observability.md`` for the registry of names in use).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "configure_metrics",
    "counter",
    "delta_capture",
    "diff_snapshots",
    "gauge",
    "global_registry",
    "histogram",
    "merge_snapshot",
    "metrics_snapshot",
    "register_collector",
    "reset_metrics",
]

DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
"""Default histogram bucket upper bounds (counts land in the first
bucket whose bound is >= the observation; larger values overflow)."""


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


class Gauge:
    """A point-in-time value; only the latest write is kept."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value

    def to_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """A fixed-bucket distribution with running sum and count."""

    __slots__ = ("name", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class _NullInstrument:
    """Shared no-op instrument handed out while the registry is disabled."""

    __slots__ = ()
    name = "<disabled>"
    value = 0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = _NullInstrument()

_Collector = Callable[[], dict[str, dict[str, Any]]]


class MetricsRegistry:
    """Named instruments plus external collectors, snapshot/merge aware."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list[_Collector] = []

    # ---------------------------------------------------------- instruments

    def _get(self, name: str, kind: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the named counter (no-op instrument if disabled)."""
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge (no-op instrument if disabled)."""
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Iterable[float] | None = None
    ) -> Histogram:
        """Get or create the named histogram (no-op if disabled)."""
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Histogram(name, bounds or DEFAULT_BUCKETS)
            self._instruments[name] = instrument
        elif not isinstance(instrument, Histogram):
            raise TypeError(f"metric {name!r} is not a histogram")
        return instrument

    def register_collector(self, collector: _Collector) -> None:
        """Fold *collector*'s metrics into every snapshot.

        The callable returns ``{name: metric_dict}`` where each metric
        dict has a ``type`` of counter/gauge/histogram, matching
        :meth:`snapshot`'s output.  Registering the same callable twice
        is a no-op.
        """
        if collector not in self._collectors:
            self._collectors.append(collector)

    # ------------------------------------------------------------ lifecycle

    def snapshot(self, include_collectors: bool = True) -> dict[str, Any]:
        """All current metric values as a JSON-ready dict.

        Collector counters *add* to same-named instruments instead of
        replacing them: after a parallel sweep the instrument holds the
        worker-merged total while the collector reports the local
        component, and the snapshot is their sum.  Non-counters from a
        collector win (they are the live local reading).
        """
        out = {
            name: instrument.to_dict()
            for name, instrument in sorted(self._instruments.items())
        }
        if include_collectors:
            for collector in self._collectors:
                for name, data in collector().items():
                    existing = out.get(name)
                    if (
                        existing is not None
                        and existing.get("type") == "counter"
                        and data.get("type") == "counter"
                    ):
                        out[name] = {
                            "type": "counter",
                            "value": existing.get("value", 0)
                            + data.get("value", 0),
                        }
                    else:
                        out[name] = data
        return out

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a snapshot (e.g. a worker's delta) into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value.  Collector-backed names merge into regular instruments
        here — the parent's own collectors still report their local
        component, so collector metrics should be diffed out of worker
        deltas (see :func:`diff_snapshots`) rather than excluded.
        """
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self._get(name, Counter).inc(data.get("value", 0))
            elif kind == "gauge":
                self._get(name, Gauge).set(data.get("value", 0.0))
            elif kind == "histogram":
                instrument = self.histogram(name, data.get("bounds"))
                if list(instrument.bounds) != list(data.get("bounds", [])):
                    # Incompatible layouts: fold into sum/count only.
                    instrument.sum += data.get("sum", 0.0)
                    instrument.count += data.get("count", 0)
                    continue
                for index, count in enumerate(data.get("counts", [])):
                    instrument.counts[index] += count
                instrument.sum += data.get("sum", 0.0)
                instrument.count += data.get("count", 0)

    def reset(self) -> None:
        """Drop every instrument (collectors stay registered)."""
        self._instruments.clear()


def diff_snapshots(
    end: dict[str, Any], start: dict[str, Any], *, keep_zero: bool = False
) -> dict[str, Any]:
    """The work done between two snapshots of the *same* registry.

    Counters and histograms subtract; gauges keep their end value.  Used
    by pool workers, whose process (and its caches/counters) outlives a
    single task: the delta attributes each task only the work it caused.

    Zero-valued counter/histogram deltas are dropped by default to keep
    worker payloads small; pass ``keep_zero=True`` when the consumer
    wants a stable key set (e.g. the ``--metrics-out`` document, where
    ``cache.hits: 0`` is information).
    """
    delta: dict[str, Any] = {}
    for name, data in end.items():
        kind = data.get("type")
        before = start.get(name)
        if kind == "counter":
            base = before.get("value", 0) if before else 0
            value = data.get("value", 0) - base
            if value or keep_zero:
                delta[name] = {"type": "counter", "value": value}
        elif kind == "gauge":
            delta[name] = dict(data)
        elif kind == "histogram":
            base_counts = before.get("counts", []) if before else []
            counts = [
                count - (base_counts[index] if index < len(base_counts) else 0)
                for index, count in enumerate(data.get("counts", []))
            ]
            count = data.get("count", 0) - (before.get("count", 0) if before else 0)
            if count or keep_zero:
                delta[name] = {
                    "type": "histogram",
                    "bounds": data.get("bounds", []),
                    "counts": counts,
                    "sum": data.get("sum", 0.0)
                    - (before.get("sum", 0.0) if before else 0.0),
                    "count": count,
                }
    return delta


@contextmanager
def delta_capture(*, keep_zero: bool = False) -> Iterator[dict[str, Any]]:
    """Capture the metrics delta of a block of work.

    Yields an (initially empty) dict that is filled with the
    :func:`diff_snapshots` delta of the process-wide registry around the
    block — the pattern pool workers use to attribute each task only
    the work it caused, however long the worker has lived::

        with delta_capture() as delta:
            run_task()
        ship(delta)  # counters/histograms of the task only

    The dict is populated when the block exits (including on exception),
    so read it only after the ``with`` statement.
    """
    holder: dict[str, Any] = {}
    before = metrics_snapshot()
    try:
        yield holder
    finally:
        holder.update(diff_snapshots(metrics_snapshot(), before,
                                     keep_zero=keep_zero))


global_registry = MetricsRegistry()
"""The process-wide registry used by all built-in instrumentation."""


def counter(name: str) -> Counter:
    """``global_registry.counter`` — the usual way to record a count."""
    return global_registry.counter(name)


def gauge(name: str) -> Gauge:
    """``global_registry.gauge``."""
    return global_registry.gauge(name)


def histogram(name: str, bounds: Iterable[float] | None = None) -> Histogram:
    """``global_registry.histogram``."""
    return global_registry.histogram(name, bounds)


def register_collector(collector: _Collector) -> None:
    """``global_registry.register_collector``."""
    global_registry.register_collector(collector)


def metrics_snapshot(include_collectors: bool = True) -> dict[str, Any]:
    """Snapshot of the process-wide registry (collectors included)."""
    return global_registry.snapshot(include_collectors)


def merge_snapshot(snapshot: dict[str, Any]) -> None:
    """Merge a (worker) snapshot into the process-wide registry."""
    global_registry.merge_snapshot(snapshot)


def reset_metrics() -> None:
    """Drop all instruments in the process-wide registry."""
    global_registry.reset()


def configure_metrics(*, enabled: bool | None = None) -> None:
    """Enable or disable the process-wide registry.

    While disabled, instrument lookups return a shared no-op object, so
    already-fetched handles keep working but newly fetched ones cost
    nothing.  Instrumented code in this package re-fetches per record,
    so disabling takes effect immediately there.
    """
    if enabled is not None:
        global_registry.enabled = enabled

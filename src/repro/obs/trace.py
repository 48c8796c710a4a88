"""Tracing spans: nestable timed sections with attributes.

A *span* is one timed section of work — an ESPRESSO pass, a mapping run,
one sweep point — with a name, key/value attributes, and parent/child
structure.  Spans nest lexically::

    from repro.obs import span

    with span("espresso", cubes_in=cover.num_cubes) as sp:
        with span("espresso.expand", cubes=cover.num_cubes):
            ...
        sp.set(cubes_out=result.num_cubes)

Tracing is **off by default** and the disabled path is a single module
attribute read plus the construction of the keyword dict — the
instrumented hot paths stay within the performance budget asserted by
``tests/obs/test_overhead.py``.  Enable it per run with
:func:`enable_tracing` / :func:`disable_tracing` or the :func:`tracing`
context manager; the CLI's ``--trace FILE`` flag does this for you.

Every finished span becomes one record in the active :class:`Tracer`'s
buffer.  Records use the Chrome ``trace_event`` "complete event" layout
(``ph="X"``, microsecond ``ts``/``dur``) directly, so exporting is a
serialisation choice, not a transformation:

* :meth:`Tracer.export_jsonl` — one event object per line (the format
  validated by :mod:`repro.obs.validate` and produced by ``--trace
  foo.jsonl``);
* :meth:`Tracer.chrome_trace` / :meth:`Tracer.write` with a ``.json``
  path — the ``{"traceEvents": [...]}`` object format loadable directly
  in Perfetto or ``chrome://tracing``.

Cross-process traces: workers snapshot their records
(:meth:`Tracer.snapshot`) and the parent merges them with
:meth:`Tracer.ingest`.  Timestamps are wall-clock microseconds since the
Unix epoch, so spans from different processes land on one shared
timeline; durations are measured with the monotonic clock.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any

__all__ = [
    "NULL_SPAN",
    "Tracer",
    "disable_tracing",
    "enable_tracing",
    "current_tracer",
    "is_enabled",
    "span",
    "tracing",
]

TRACE_SCHEMA_VERSION = 1
"""Version tag stamped on exported traces (bump on layout changes)."""


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        """Ignore attributes (tracing is off)."""
        return self


NULL_SPAN = _NullSpan()
"""Singleton returned by :func:`span` while tracing is disabled."""


class Span:
    """One live span; records itself into the tracer when the block exits."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id",
                 "_wall_us", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id = 0
        self._wall_us = 0.0
        self._start_ns = 0

    def set(self, **attrs: Any) -> "Span":
        """Attach or overwrite attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        stack = tracer._stack
        self.parent_id = stack[-1] if stack else 0
        stack.append(self.span_id)
        self._wall_us = time.time_ns() / 1_000
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        duration_us = (time.perf_counter_ns() - self._start_ns) / 1_000
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] == self.span_id:
            tracer._stack.pop()
        if exc_type is not None:
            self.attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
        tracer.records.append({
            "name": self.name,
            "ph": "X",
            "ts": self._wall_us,
            "dur": duration_us,
            "pid": tracer.pid,
            "tid": threading.get_native_id(),
            "sid": self.span_id,
            "parent": self.parent_id,
            "args": self.attrs,
        })
        return False


class Tracer:
    """A per-run buffer of finished span records.

    One tracer is active per process at a time (see
    :func:`enable_tracing`); worker processes create their own and ship
    snapshots back to the parent, which :meth:`ingest`\\ s them.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self.pid = os.getpid()
        self._stack: list[int] = []
        self._counter = 0

    def _next_id(self) -> int:
        self._counter += 1
        # Disambiguate span ids across processes without coordination.
        return (self.pid << 32) | self._counter

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------- merging

    def snapshot(self, clear: bool = False) -> list[dict[str, Any]]:
        """A copy of the record buffer, optionally clearing it.

        Worker processes call this with ``clear=True`` after each task so
        a reused pool worker never double-reports earlier tasks.
        """
        records = list(self.records)
        if clear:
            self.records.clear()
        return records

    def ingest(self, records: list[dict[str, Any]]) -> None:
        """Merge span records snapshotted in another process."""
        self.records.extend(records)

    # ------------------------------------------------------------- exports

    def chrome_trace(self) -> dict[str, Any]:
        """The Chrome/Perfetto ``trace_event`` object-format document."""
        events: list[dict[str, Any]] = []
        for pid in sorted({record["pid"] for record in self.records}):
            role = "main" if pid == self.pid else "worker"
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro {role} (pid {pid})"},
            })
        events.extend(self.records)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"schema_version": TRACE_SCHEMA_VERSION},
        }

    def export_jsonl(self, path: str | os.PathLike) -> None:
        """Write one trace event per line (the ``--trace foo.jsonl`` format)."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, default=_json_fallback))
                handle.write("\n")

    def export_chrome(self, path: str | os.PathLike) -> None:
        """Write the ``{"traceEvents": [...]}`` document (``.json``)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, default=_json_fallback)
            handle.write("\n")

    def write(self, path: str | os.PathLike) -> None:
        """Export to *path*, picking the format from the extension.

        ``.json`` gets the Chrome object format (directly loadable in
        Perfetto); everything else gets JSONL.
        """
        if str(path).endswith(".json"):
            self.export_chrome(path)
        else:
            self.export_jsonl(path)


def _json_fallback(value: Any) -> Any:
    """Serialise numpy scalars and other oddballs attached as attributes."""
    for attr in ("item",):  # numpy scalar -> python scalar
        if hasattr(value, attr):
            return getattr(value, attr)()
    return str(value)


_active: Tracer | None = None


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Install *tracer* (or a fresh one) as the process-wide active tracer."""
    global _active
    _active = tracer if tracer is not None else Tracer()
    return _active


def disable_tracing() -> None:
    """Turn tracing off; subsequent :func:`span` calls are no-ops."""
    global _active
    _active = None


def current_tracer() -> Tracer | None:
    """The active tracer, or None while tracing is disabled."""
    return _active


def is_enabled() -> bool:
    """True while a tracer is installed."""
    return _active is not None


def span(name: str, /, **attrs: Any) -> Span | _NullSpan:
    """A context manager timing one named section of work.

    While tracing is disabled this returns the shared :data:`NULL_SPAN`
    and costs one global read — cheap enough for per-pass instrumentation
    inside the ESPRESSO loop.
    """
    tracer = _active
    if tracer is None:
        return NULL_SPAN
    return Span(tracer, name, attrs)


class tracing:
    """``with tracing() as tracer:`` — scoped enable/disable.

    Restores the previously active tracer (usually None) on exit, so
    nested scopes behave.
    """

    def __init__(self, tracer: Tracer | None = None):
        self._tracer = tracer if tracer is not None else Tracer()
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = _active
        enable_tracing(self._tracer)
        return self._tracer

    def __exit__(self, *exc: object) -> bool:
        global _active
        _active = self._previous
        return False

"""Observability: tracing spans, a metrics registry, and run manifests.

The package makes the substrate introspectable end to end:

* :mod:`repro.obs.trace` — nestable :func:`span` context managers
  recording wall time, attributes and parent/child structure into a
  per-run :class:`Tracer`; exportable as JSONL or Chrome
  ``trace_event`` JSON (Perfetto-loadable).
* :mod:`repro.obs.metrics` — named counters, gauges and fixed-bucket
  histograms in a process-wide registry, with snapshot / merge / diff
  operations used to aggregate worker-process deltas after a parallel
  sweep.
* :mod:`repro.obs.manifest` — :class:`RunManifest` provenance records
  (args, seed, git rev, versions, timings, metrics) written by the CLI
  and the benchmarks.
* :mod:`repro.obs.progress` — the ``--progress`` ETA reporter.
* :mod:`repro.obs.store` — the telemetry ledger: an append-only SQLite
  record of every run (manifest, metrics, stage timings, quality
  figures, profile), queried by ``repro obs``.
* :mod:`repro.obs.profile` — the ``--profile`` sampling stack profiler
  (flamegraph-ready collapsed stacks, merged from pool workers).
* :mod:`repro.obs.regress` — cross-run comparison and the regression
  gate behind ``repro obs compare`` / ``repro obs regressions``.
* :mod:`repro.obs.session` — :class:`ObsSession`, the CLI glue tying
  the above to ``--trace`` / ``--metrics-out`` / ``--manifest`` /
  ``--profile`` / ``--progress`` and the ledger.
* :mod:`repro.obs.validate` — schema checks for all emitted artefacts
  (``python -m repro.obs.validate FILE...``).

Everything is off (tracing) or near-free (metrics) by default; see
``docs/observability.md`` for naming conventions and how to read a
trace.
"""

from .manifest import RunManifest, collect_manifest, git_revision, validate_manifest
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    configure_metrics,
    counter,
    diff_snapshots,
    gauge,
    global_registry,
    histogram,
    merge_snapshot,
    metrics_snapshot,
    register_collector,
    reset_metrics,
)
from .profile import (
    StackSampler,
    current_sampler,
    disable_profiling,
    enable_profiling,
    is_profiling,
    top_functions,
)
from .progress import ProgressReporter
from .session import ObsSession
from .store import (
    LEDGER_SCHEMA_VERSION,
    LedgerStore,
    RunRecord,
    default_ledger_path,
    ledger_enabled,
    open_ledger,
)
from .trace import (
    NULL_SPAN,
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    is_enabled,
    span,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA_VERSION",
    "LedgerStore",
    "MetricsRegistry",
    "NULL_SPAN",
    "ObsSession",
    "ProgressReporter",
    "RunManifest",
    "RunRecord",
    "StackSampler",
    "Tracer",
    "collect_manifest",
    "configure_metrics",
    "counter",
    "current_sampler",
    "current_tracer",
    "default_ledger_path",
    "diff_snapshots",
    "disable_profiling",
    "disable_tracing",
    "enable_profiling",
    "enable_tracing",
    "gauge",
    "git_revision",
    "global_registry",
    "histogram",
    "is_enabled",
    "is_profiling",
    "ledger_enabled",
    "merge_snapshot",
    "metrics_snapshot",
    "open_ledger",
    "register_collector",
    "reset_metrics",
    "span",
    "top_functions",
    "tracing",
    "validate_manifest",
]

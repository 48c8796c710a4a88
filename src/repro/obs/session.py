"""Per-run observability session: the glue between CLI flags and obs.

``ObsSession`` owns the lifetime of one command's observability: it
enables tracing when a ``--trace`` path was given, starts the sampling
profiler for ``--profile``, hands out progress reporters for
``--progress``, and on exit writes the trace file, the metrics document
(``--metrics-out``: merged metrics plus an embedded manifest), the bare
manifest (``--manifest``), the folded profile — and appends one row to
the telemetry ledger (:mod:`repro.obs.store`) so the run stays
queryable and comparable after its artefact files are gone.

Interrupted runs still leave telemetry: the session registers a
SIGTERM handler and an ``atexit`` hook that flush whatever has been
collected so far, marking the ledger row ``interrupted``.  A normal
exit finalises (replaces) that row, so at most one row per session ever
exists.

Use as a context manager::

    session = ObsSession(command="sweep", argv=argv, parameters=params,
                         trace_path="out.jsonl", metrics_path="m.json")
    with session:
        session.exit_status = run()
        session.record_quality(points)
"""

from __future__ import annotations

import atexit
import json
import signal
import sys
import time
from typing import Any, TextIO

from .manifest import RunManifest, collect_manifest
from .metrics import diff_snapshots, metrics_snapshot
from .profile import StackSampler, disable_profiling, enable_profiling
from .progress import ProgressReporter
from .store import open_ledger
from .trace import Tracer, disable_tracing, enable_tracing

__all__ = ["ObsSession", "stage_timings_from_metrics"]


def stage_timings_from_metrics(metrics: dict[str, Any]) -> dict[str, Any]:
    """``{stage: {"seconds": s, "runs": n}}`` from a metrics snapshot.

    The pipeline records per-stage wall time under
    ``pipeline.stage_seconds.<name>`` / ``pipeline.stage_runs.<name>``
    counters (see :mod:`repro.pipeline.pipeline`); this folds them into
    the ledger's ``stage_timings`` column shape.
    """
    timings: dict[str, dict[str, Any]] = {}
    for name, metric in metrics.items():
        if name.startswith("pipeline.stage_seconds."):
            stage = name[len("pipeline.stage_seconds."):]
            timings.setdefault(stage, {})["seconds"] = metric.get("value", 0.0)
        elif name.startswith("pipeline.stage_runs."):
            stage = name[len("pipeline.stage_runs."):]
            timings.setdefault(stage, {})["runs"] = metric.get("value", 0)
    return timings


class ObsSession:
    """One command's tracing/metrics/manifest/profile/ledger lifecycle."""

    def __init__(
        self,
        command: str,
        *,
        argv: list[str] | None = None,
        parameters: dict[str, Any] | None = None,
        seed: int | None = None,
        trace_path: str | None = None,
        metrics_path: str | None = None,
        manifest_path: str | None = None,
        profile_path: str | None = None,
        progress: bool = False,
        stream: TextIO | None = None,
        ledger: bool = True,
    ):
        self.command = command
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.manifest_path = manifest_path
        self.profile_path = profile_path
        self.progress_enabled = progress
        self.ledger_enabled = ledger
        self.stream = stream if stream is not None else sys.stderr
        self.exit_status: int | None = None
        self.tracer: Tracer | None = None
        self.sampler: StackSampler | None = None
        self.manifest: RunManifest = collect_manifest(
            command, argv=argv, parameters=parameters, seed=seed
        )
        self.quality: list[dict[str, Any]] = []
        self.extra: dict[str, Any] | None = None
        self.run_id: str | None = None
        self._start = 0.0
        self._metrics_baseline: dict[str, Any] = {}
        self._reporters: list[ProgressReporter] = []
        self._finalized = False
        self._prev_sigterm: Any = None

    @classmethod
    def from_args(cls, command: str, args: Any,
                  argv: list[str] | None = None) -> "ObsSession":
        """Build a session from a parsed ``argparse`` namespace.

        Reads the shared observability flags (``trace``, ``metrics_out``,
        ``manifest``, ``profile``, ``progress``) and records every other
        public parameter in the manifest.
        """
        parameters = {
            key: value
            for key, value in vars(args).items()
            if not key.startswith("_") and key not in ("func", "command")
            and not callable(value)
        }
        return cls(
            command,
            argv=argv if argv is not None else sys.argv[1:],
            parameters=parameters,
            seed=getattr(args, "seed", None),
            trace_path=getattr(args, "trace", None),
            metrics_path=getattr(args, "metrics_out", None),
            manifest_path=getattr(args, "manifest", None),
            profile_path=getattr(args, "profile", None),
            progress=bool(getattr(args, "progress", False)),
        )

    # ------------------------------------------------------------- progress

    def progress_reporter(
        self, total: int | None = None, label: str | None = None
    ) -> ProgressReporter | None:
        """A progress callback, or None when ``--progress`` wasn't given."""
        if not self.progress_enabled:
            return None
        reporter = ProgressReporter(
            total, label=label or self.command, stream=self.stream
        )
        self._reporters.append(reporter)
        return reporter

    # -------------------------------------------------------------- quality

    def record_quality(self, points: Any) -> None:
        """Record result-quality figures for the ledger.

        Accepts a list of dicts (or objects with ``to_dict``), each one
        measured implementation: benchmark, policy, parameter,
        error_rate, area, literals, ... — the figures ``repro obs
        compare/regressions`` diff across runs.
        """
        import dataclasses

        for point in points:
            if hasattr(point, "to_dict"):
                point = point.to_dict()
            elif dataclasses.is_dataclass(point) and not isinstance(point, type):
                point = dataclasses.asdict(point)
            self.quality.append(dict(point))

    # ------------------------------------------------------------ lifecycle

    def __enter__(self) -> "ObsSession":
        self._start = time.perf_counter()
        # Baseline so the session reports only its own work, even when
        # the process-wide registry already holds activity from an
        # embedding host (e.g. a test process running many commands).
        self._metrics_baseline = metrics_snapshot()
        if self.trace_path:
            self.tracer = enable_tracing()
        if self.profile_path:
            self.sampler = enable_profiling()
        self._install_flush_hooks()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self._remove_flush_hooks()
        if self.tracer is not None:
            disable_tracing()
        if self.sampler is not None:
            disable_profiling()
        for reporter in self._reporters:
            reporter.finish()
        if self.exit_status is None and exc_type is not None:
            self.exit_status = 1
        self._collect()
        self._write_outputs()
        self._record_ledger(interrupted=False)
        self._finalized = True
        return False

    # ---------------------------------------------------- interrupted runs

    def _install_flush_hooks(self) -> None:
        """Flush partial telemetry on SIGTERM or interpreter exit.

        A killed sweep then still leaves its trace/metrics/manifest and
        an ``interrupted`` ledger row behind instead of nothing.  The
        SIGTERM handler re-raises the signal with the previous handler
        restored, so the process still dies with the conventional
        128+15 status.
        """
        atexit.register(self._flush_partial)
        try:
            self._prev_sigterm = signal.signal(
                signal.SIGTERM, self._on_sigterm
            )
        except (ValueError, OSError):  # non-main thread / exotic platform
            self._prev_sigterm = None

    def _remove_flush_hooks(self) -> None:
        atexit.unregister(self._flush_partial)
        if self._prev_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, self._prev_sigterm)
            except (ValueError, OSError):
                pass
            self._prev_sigterm = None

    def _on_sigterm(self, signum: int, frame: Any) -> None:
        self._flush_partial()
        previous = self._prev_sigterm
        try:
            signal.signal(
                signal.SIGTERM,
                previous if previous is not None else signal.SIG_DFL,
            )
        except (ValueError, OSError):
            pass
        signal.raise_signal(signal.SIGTERM)

    def _flush_partial(self) -> None:
        """Write whatever telemetry exists right now (idempotent-safe)."""
        if self._finalized:
            return
        self._collect()
        try:
            self._write_outputs()
        except Exception:  # noqa: BLE001 - dying process, best effort
            pass
        self._record_ledger(interrupted=True)

    # ------------------------------------------------------------- writing

    def _collect(self) -> None:
        """Fold the current state into the manifest (safe to re-run)."""
        self.manifest.duration_seconds = time.perf_counter() - self._start
        self.manifest.exit_status = self.exit_status
        self.manifest.metrics = diff_snapshots(
            metrics_snapshot(), self._metrics_baseline, keep_zero=True
        )

    def _profile_payload(self) -> dict[str, Any] | None:
        if self.sampler is None:
            return None
        payload = self.sampler.summary()
        if self.profile_path:
            payload["folded_path"] = str(self.profile_path)
        return payload

    def _record_ledger(self, *, interrupted: bool) -> None:
        """Append (or finalise) this run's ledger row; never raises."""
        if not self.ledger_enabled:
            return
        try:
            store = open_ledger()
            if store is None:
                return
            with store:
                self.run_id = store.record_run(
                    command=self.command,
                    manifest=self.manifest.to_dict(),
                    metrics=self.manifest.metrics,
                    stage_timings=stage_timings_from_metrics(
                        self.manifest.metrics
                    ),
                    quality=self.quality,
                    profile=self._profile_payload(),
                    extra=self.extra,
                    duration_seconds=self.manifest.duration_seconds,
                    exit_status=self.exit_status,
                    interrupted=interrupted,
                    git_rev=self.manifest.git_rev,
                    run_id=self.run_id,
                )
        except Exception:  # noqa: BLE001 - telemetry must not fail the run
            pass

    def _write_outputs(self) -> None:
        if self.tracer is not None and self.trace_path:
            self.tracer.write(self.trace_path)
        if self.sampler is not None and self.profile_path:
            self.sampler.write_folded(self.profile_path)
        if self.metrics_path:
            document = {
                "schema_version": self.manifest.schema_version,
                "generated_by": f"repro {self.command}",
                "metrics": self.manifest.metrics,
                "manifest": self.manifest.to_dict(),
            }
            with open(self.metrics_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True,
                          default=str)
                handle.write("\n")
        if self.manifest_path:
            self.manifest.write(self.manifest_path)

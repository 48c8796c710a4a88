"""Schema validation for observability artefacts.

Checks every file kind the CLI and benchmarks emit — JSONL / Chrome
traces (``--trace``), metrics documents (``--metrics-out``), run
manifests (``--manifest``), the telemetry ledger
(``.repro/ledger.sqlite``) and its JSONL export — and reports every
problem found.  Runnable as a module, which is what the CI smoke job
does::

    python -m repro.obs.validate /tmp/t.jsonl /tmp/m.json .repro/ledger.sqlite

Exit status 0 means every file validated; 1 means problems (listed on
stderr); 2 means a file could not be read or decoded at all.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

from .manifest import validate_manifest

__all__ = [
    "validate_file",
    "validate_ledger",
    "validate_metrics_document",
    "validate_pool_metrics",
    "validate_run_record",
    "validate_trace_events",
    "validate_trace_jsonl",
]

_EVENT_PHASES = {"X", "M", "B", "E", "i", "C"}


def _check_event(event: Any, where: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(event, dict):
        return [f"{where}: event must be an object, got {type(event).__name__}"]
    if not isinstance(event.get("name"), str):
        problems.append(f"{where}: missing string 'name'")
    phase = event.get("ph")
    if phase not in _EVENT_PHASES:
        problems.append(f"{where}: 'ph' must be one of {sorted(_EVENT_PHASES)}")
    if phase == "X":
        for key in ("ts", "dur"):
            if not isinstance(event.get(key), (int, float)):
                problems.append(f"{where}: complete event needs numeric {key!r}")
    for key in ("pid", "tid"):
        if key in event and not isinstance(event[key], int):
            problems.append(f"{where}: {key!r} must be an integer")
    if "args" in event and not isinstance(event["args"], dict):
        problems.append(f"{where}: 'args' must be an object")
    return problems


def validate_trace_events(events: Any, source: str = "trace") -> list[str]:
    """Check a list of Chrome ``trace_event`` objects."""
    if not isinstance(events, list):
        return [f"{source}: traceEvents must be a list"]
    problems: list[str] = []
    if not events:
        problems.append(f"{source}: trace contains no events")
    for index, event in enumerate(events):
        problems.extend(_check_event(event, f"{source}: event {index}"))
    return problems


def validate_trace_jsonl(path: str | Path) -> list[str]:
    """Check a JSONL trace file line by line."""
    problems: list[str] = []
    events = 0
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{path}: line {lineno}: invalid JSON ({exc})")
                continue
            events += 1
            problems.extend(_check_event(event, f"{path}: line {lineno}"))
    if events == 0:
        problems.append(f"{path}: trace contains no events")
    return problems


# The pool no longer writes ``pool.workers_stalled`` or the per-worker
# ``pool.worker.<pid>.*`` gauges; their rules stay so that ledgers and
# metrics documents written by earlier releases still validate.
_POOL_GAUGES = {"pool.workers", "pool.workers_stalled"}
"""``pool.*`` instruments that must be gauges (point-in-time values)."""

_POOL_WORKER_SUFFIXES = {"rss_bytes", "tasks_done", "last_seen"}
"""The per-worker gauges: ``pool.worker.<pid>.<suffix>``."""


def validate_pool_metrics(metrics: Any, source: str = "metrics") -> list[str]:
    """Check the ``pool.*`` / ``pool.worker.*`` metric name schema.

    Per-worker gauges must be ``pool.worker.<pid>.<suffix>``
    with a numeric pid and a known suffix; the fleet-level gauges are
    enumerated in :data:`_POOL_GAUGES`; every other ``pool.*``
    instrument is a counter or histogram.
    """
    if not isinstance(metrics, dict):
        return []
    problems: list[str] = []
    for name, metric in metrics.items():
        if not name.startswith("pool.") or not isinstance(metric, dict):
            continue
        mtype = metric.get("type")
        if name.startswith("pool.worker."):
            pid, _, suffix = name[len("pool.worker."):].partition(".")
            if not pid.isdigit() or suffix not in _POOL_WORKER_SUFFIXES:
                problems.append(
                    f"{source}: {name!r} is not a known worker gauge "
                    f"(pool.worker.<pid>.<{'|'.join(sorted(_POOL_WORKER_SUFFIXES))}>)"
                )
            elif mtype != "gauge":
                problems.append(
                    f"{source}: {name!r} must be a gauge, got {mtype!r}"
                )
            elif not isinstance(metric.get("value"), (int, float)):
                problems.append(f"{source}: {name!r} needs a numeric value")
        elif name in _POOL_GAUGES:
            if mtype != "gauge":
                problems.append(
                    f"{source}: {name!r} must be a gauge, got {mtype!r}"
                )
        elif mtype not in ("counter", "histogram"):
            problems.append(
                f"{source}: {name!r} must be a counter or histogram, "
                f"got {mtype!r}"
            )
    return problems


def validate_metrics_document(data: Any, source: str = "metrics") -> list[str]:
    """Check a ``--metrics-out`` document (metrics + embedded manifest)."""
    if not isinstance(data, dict):
        return [f"{source}: document must be a JSON object"]
    problems: list[str] = []
    metrics = data.get("metrics")
    if not isinstance(metrics, dict):
        problems.append(f"{source}: missing 'metrics' object")
    else:
        for name, metric in metrics.items():
            if not isinstance(metric, dict) or metric.get("type") not in (
                "counter", "gauge", "histogram",
            ):
                problems.append(f"{source}: metric {name!r} malformed")
        problems.extend(validate_pool_metrics(metrics, source))
    manifest = data.get("manifest")
    if manifest is None:
        problems.append(f"{source}: missing embedded 'manifest'")
    else:
        problems.extend(
            f"{source}: manifest: {problem}"
            for problem in validate_manifest(manifest)
        )
    return problems


def validate_run_record(data: Any, source: str = "ledger row") -> list[str]:
    """Check one telemetry-ledger run record (decoded row or JSONL line)."""
    from .store import LEDGER_SCHEMA_VERSION

    if not isinstance(data, dict):
        return [f"{source}: record must be a JSON object"]
    problems: list[str] = []
    for name, kind in (("run_id", str), ("command", str)):
        if not isinstance(data.get(name), kind):
            problems.append(f"{source}: missing {kind.__name__} {name!r}")
    version = data.get("schema_version")
    if version not in (None, LEDGER_SCHEMA_VERSION):
        problems.append(
            f"{source}: unknown schema_version {version!r} "
            f"(this reader understands {LEDGER_SCHEMA_VERSION})"
        )
    for name, kind in (
        ("manifest", dict), ("metrics", dict), ("stage_timings", dict),
        ("quality", list),
    ):
        value = data.get(name)
        if value is not None and not isinstance(value, kind):
            problems.append(
                f"{source}: field {name!r} must be {kind.__name__}, "
                f"got {type(value).__name__}"
            )
    duration = data.get("duration_seconds")
    if duration is not None and (
        not isinstance(duration, (int, float)) or duration < 0
    ):
        problems.append(f"{source}: duration_seconds must be non-negative")
    metrics = data.get("metrics")
    if isinstance(metrics, dict):
        problems.extend(validate_pool_metrics(metrics, source))
    return problems


def validate_ledger(path: str | Path) -> list[str]:
    """Check a telemetry-ledger SQLite file, read-only.

    Unlike :class:`~repro.obs.store.LedgerStore` this never recovers
    (moves aside) a damaged file — validation must not modify what it
    inspects.  An unreadable database or row is reported as a problem.
    """
    import sqlite3

    from .store import _COLUMNS, _JSON_COLUMNS

    path = Path(path)
    problems: list[str] = []
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=10.0)
    except sqlite3.Error as exc:
        return [f"{path}: cannot open ledger ({exc})"]
    try:
        try:
            rows = conn.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM runs"
            ).fetchall()
        except sqlite3.DatabaseError as exc:
            return [f"{path}: unreadable ledger ({exc})"]
        for row in rows:
            data = dict(zip(_COLUMNS, row))
            where = f"{path}: run {data.get('id')!r}"
            record: dict[str, Any] = {
                "run_id": data["id"],
                "command": data["command"],
                "schema_version": data["schema_version"],
                "duration_seconds": data["duration_seconds"],
            }
            corrupt = False
            for name in _JSON_COLUMNS:
                blob = data[name]
                if blob is None:
                    continue
                try:
                    record[name] = json.loads(blob)
                except (json.JSONDecodeError, TypeError):
                    problems.append(f"{where}: corrupt JSON in {name!r}")
                    corrupt = True
            if not corrupt:
                problems.extend(validate_run_record(record, where))
    finally:
        conn.close()
    return problems


def _looks_like_run_record(line: str) -> bool:
    try:
        data = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(data, dict) and "run_id" in data


def _validate_ledger_jsonl(path: Path) -> list[str]:
    problems: list[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{where}: invalid JSON ({exc})")
                continue
            problems.extend(validate_run_record(data, where))
    return problems


def validate_file(path: str | Path) -> list[str]:
    """Validate one artefact, inferring its kind from content/extension.

    ``.sqlite``/``.db`` files are telemetry ledgers.  ``.jsonl`` files
    are ledger exports when their lines carry ``run_id``, traces
    otherwise.  ``.json`` files are classified by their top-level keys
    (``traceEvents`` → Chrome trace, ``metrics`` → metrics document,
    ``command`` → bare manifest).
    """
    path = Path(path)
    if path.suffix in (".sqlite", ".db"):
        return validate_ledger(path)
    if path.suffix == ".jsonl":
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    if _looks_like_run_record(line):
                        return _validate_ledger_jsonl(path)
                    break
        return validate_trace_jsonl(path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict) and "traceEvents" in data:
        return validate_trace_events(data["traceEvents"], str(path))
    if isinstance(data, dict) and "metrics" in data and "command" not in data:
        return validate_metrics_document(data, str(path))
    problems = validate_manifest(data)
    return [f"{path}: {problem}" for problem in problems]


def main(argv: list[str] | None = None) -> int:
    """Validate every path given; print problems; return an exit status."""
    paths = argv if argv is not None else sys.argv[1:]
    if not paths:
        print("usage: python -m repro.obs.validate FILE [FILE ...]",
              file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        try:
            problems = validate_file(path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            status = 2
            continue
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            status = max(status, 1)
        else:
            print(f"{path}: ok")
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

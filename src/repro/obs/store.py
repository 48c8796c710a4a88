"""The telemetry ledger: a durable, queryable record of every run.

Everything else in :mod:`repro.obs` is write-once — a ``--trace`` file, a
``--metrics-out`` document, a manifest — useful for inspecting *one* run
but thrown away the moment the next one starts.  The ledger makes runs
comparable across time: every CLI command, sweep, pipeline and
scenario run appends one row (via :class:`~repro.obs.session.ObsSession`)
holding its manifest, final metrics snapshot, per-stage timings, result
quality figures (error rate / area / literal count per policy point) and
profiler summary.  ``repro obs runs/show/regressions/export`` query it;
CI gates on it.

Storage is a single SQLite file (stdlib ``sqlite3``, append-only usage:
rows are inserted, never updated) with JSON columns for the structured
payloads, plus a line-per-run JSONL export for archiving or shipping
elsewhere.  Every read and insert names its columns, so a ledger that
an older release created with extra columns still opens, reads and
appends; new rows leave those columns NULL.  The default location is
``.repro/ledger.sqlite`` under the current directory — a per-repo
store — overridable with ``REPRO_LEDGER_PATH`` and disabled entirely
with ``REPRO_LEDGER_DISABLE=1``.

Corruption is handled the way the checkpoint store handles it: a file
that SQLite cannot open is moved aside (``<path>.corrupt-<pid>``) and a
fresh ledger is started (``ledger.recovered`` counter); a row whose JSON
payload does not decode is skipped by queries and counted
(``ledger.corrupt_rows``), never fatal.  Telemetry must not be able to
fail a run — every write path is wrapped accordingly by the session.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from . import metrics as obs_metrics

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "LedgerError",
    "LedgerStore",
    "RunRecord",
    "default_ledger_path",
    "ledger_enabled",
    "open_ledger",
]

LEDGER_SCHEMA_VERSION = 1
"""Bump on any backwards-incompatible ledger layout change."""

DEFAULT_LEDGER_DIR = ".repro"
"""Per-repo ledger directory, created under the working directory."""

DEFAULT_LEDGER_FILE = "ledger.sqlite"

_TABLE_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    id TEXT PRIMARY KEY,
    created_at TEXT NOT NULL,
    command TEXT NOT NULL,
    git_rev TEXT,
    duration_seconds REAL,
    exit_status INTEGER,
    interrupted INTEGER NOT NULL DEFAULT 0,
    schema_version INTEGER NOT NULL,
    manifest TEXT NOT NULL,
    metrics TEXT NOT NULL,
    stage_timings TEXT,
    quality TEXT,
    profile TEXT
)
"""

_COLUMNS = (
    "id", "created_at", "command", "git_rev", "duration_seconds",
    "exit_status", "interrupted", "schema_version", "manifest", "metrics",
    "stage_timings", "quality", "profile",
)

_JSON_COLUMNS = ("manifest", "metrics", "stage_timings", "quality", "profile")


class LedgerError(RuntimeError):
    """The ledger file is unusable (and could not be recovered)."""


def ledger_enabled() -> bool:
    """False when ``REPRO_LEDGER_DISABLE=1`` turns the ledger off."""
    return os.environ.get("REPRO_LEDGER_DISABLE", "") != "1"


def default_ledger_path() -> Path:
    """The ledger location: ``REPRO_LEDGER_PATH`` or ``.repro/ledger.sqlite``."""
    override = os.environ.get("REPRO_LEDGER_PATH")
    if override:
        return Path(override)
    return Path.cwd() / DEFAULT_LEDGER_DIR / DEFAULT_LEDGER_FILE


def open_ledger() -> "LedgerStore | None":
    """The ledger at :func:`default_ledger_path`, or None when disabled."""
    if not ledger_enabled():
        return None
    return LedgerStore(default_ledger_path())


@dataclass
class RunRecord:
    """One decoded ledger row.

    Attributes:
        run_id: unique id (``<utc-stamp>-<hex>``), assigned at insert.
        created_at: ISO-8601 UTC insert time.
        command: the subcommand that ran.
        git_rev: source revision, when discoverable.
        duration_seconds / exit_status / interrupted: how the run ended
            (``interrupted`` marks partial rows flushed on SIGTERM).
        manifest: the full run manifest (see :mod:`repro.obs.manifest`).
        metrics: the run's final metrics snapshot.
        stage_timings: ``{stage: {"seconds": s, "runs": n}}`` from the
            ``pipeline.stage`` instrumentation.
        quality: result-quality points — one dict per measured
            implementation (policy, parameter, error_rate, area,
            literals, ...), the figures the paper's tables compare.
        profile: sampling-profiler summary (sample counts, top
            functions, folded output path) when ``--profile`` was given.
    """

    run_id: str
    created_at: str
    command: str
    git_rev: str | None = None
    duration_seconds: float | None = None
    exit_status: int | None = None
    interrupted: bool = False
    schema_version: int = LEDGER_SCHEMA_VERSION
    manifest: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    stage_timings: dict[str, Any] = field(default_factory=dict)
    quality: list[dict[str, Any]] = field(default_factory=list)
    profile: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready dict of every field."""
        return dataclasses.asdict(self)


def _new_run_id() -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.urandom(4).hex()}"


class LedgerStore:
    """Append-only SQLite store of :class:`RunRecord` rows.

    Args:
        path: the database file; parent directories are created.  A file
            SQLite rejects is moved aside and recreated (recovery is
            counted under ``ledger.recovered``).
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._connect()
        except sqlite3.DatabaseError:
            self._recover()
            self._conn = self._connect()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=10.0)
        try:
            conn.execute(_TABLE_SQL)
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _recover(self) -> None:
        """Move an unreadable ledger aside so a fresh one can start.

        The damaged file is kept (``<name>.corrupt-<pid>``) for manual
        inspection rather than deleted — mirroring the checkpoint
        store's treat-as-miss-but-don't-lose-data policy.
        """
        aside = self.path.with_name(f"{self.path.name}.corrupt-{os.getpid()}")
        try:
            os.replace(self.path, aside)
        except OSError as exc:
            raise LedgerError(
                f"ledger {self.path} is corrupt and could not be moved "
                f"aside: {exc}"
            ) from exc
        obs_metrics.counter("ledger.recovered").inc()

    def close(self) -> None:
        """Close the underlying connection (the store is unusable after)."""
        self._conn.close()

    def __enter__(self) -> "LedgerStore":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -------------------------------------------------------------- writing

    def record_run(
        self,
        *,
        command: str,
        manifest: dict[str, Any],
        metrics: dict[str, Any],
        stage_timings: dict[str, Any] | None = None,
        quality: list[dict[str, Any]] | None = None,
        profile: dict[str, Any] | None = None,
        duration_seconds: float | None = None,
        exit_status: int | None = None,
        interrupted: bool = False,
        git_rev: str | None = None,
        run_id: str | None = None,
    ) -> str:
        """Append one run row; returns the assigned run id.

        Passing an existing *run_id* replaces that row — the one
        non-append use, needed so a SIGTERM-flushed partial row can be
        finalised by the same session if the process survives after all.
        """
        record_id = run_id or _new_run_id()
        created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        if git_rev is None:
            git_rev = manifest.get("git_rev")
        row = (
            record_id,
            created,
            command,
            git_rev,
            duration_seconds,
            exit_status,
            1 if interrupted else 0,
            LEDGER_SCHEMA_VERSION,
            json.dumps(manifest, sort_keys=True, default=str),
            json.dumps(metrics, sort_keys=True, default=str),
            json.dumps(stage_timings or {}, sort_keys=True, default=str),
            json.dumps(quality or [], sort_keys=True, default=str),
            None if profile is None
            else json.dumps(profile, sort_keys=True, default=str),
        )
        placeholders = ", ".join("?" for _ in _COLUMNS)
        self._conn.execute(
            f"INSERT OR REPLACE INTO runs ({', '.join(_COLUMNS)}) "
            f"VALUES ({placeholders})",
            row,
        )
        self._conn.commit()
        obs_metrics.counter("ledger.runs_recorded").inc()
        return record_id

    # -------------------------------------------------------------- reading

    def _decode(self, row: tuple) -> RunRecord:
        data = dict(zip(_COLUMNS, row))
        decoded: dict[str, Any] = {}
        for name in _JSON_COLUMNS:
            blob = data[name]
            if blob is None:
                decoded[name] = None
            else:
                decoded[name] = json.loads(blob)  # raises on corrupt rows
        return RunRecord(
            run_id=data["id"],
            created_at=data["created_at"],
            command=data["command"],
            git_rev=data["git_rev"],
            duration_seconds=data["duration_seconds"],
            exit_status=data["exit_status"],
            interrupted=bool(data["interrupted"]),
            schema_version=data["schema_version"],
            manifest=decoded["manifest"] or {},
            metrics=decoded["metrics"] or {},
            stage_timings=decoded["stage_timings"] or {},
            quality=decoded["quality"] or [],
            profile=decoded["profile"],
        )

    def _select(
        self,
        where: str = "",
        params: tuple = (),
        *,
        limit: int | None = None,
    ) -> Iterator[RunRecord]:
        sql = f"SELECT {', '.join(_COLUMNS)} FROM runs"
        if where:
            sql += f" WHERE {where}"
        sql += " ORDER BY created_at DESC, id DESC"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        for row in self._conn.execute(sql, params):
            try:
                yield self._decode(row)
            except (json.JSONDecodeError, TypeError):
                # A row whose JSON payload was damaged (e.g. a partial
                # write through a dying filesystem) must not take the
                # whole ledger down: skip it, count it, move on.
                obs_metrics.counter("ledger.corrupt_rows").inc()

    def runs(
        self,
        *,
        command: str | None = None,
        git_rev: str | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Decoded rows, newest first, optionally filtered.

        *git_rev* matches on prefix, so an abbreviated ``git rev-parse
        --short`` hash finds its runs.  Corrupt rows are skipped (and
        counted under ``ledger.corrupt_rows``).
        """
        clauses: list[str] = []
        params: list[Any] = []
        if command is not None:
            clauses.append("command = ?")
            params.append(command)
        if git_rev is not None:
            clauses.append("git_rev LIKE ?")
            params.append(git_rev + "%")
        return list(
            self._select(" AND ".join(clauses), tuple(params), limit=limit)
        )

    def get(self, run_id: str) -> RunRecord | None:
        """The row with *run_id* (exact, then unique-prefix), or None."""
        for record in self._select("id = ?", (run_id,), limit=1):
            return record
        matches = list(self._select("id LIKE ?", (run_id + "%",), limit=2))
        if len(matches) == 1:
            return matches[0]
        return None

    def latest(
        self,
        *,
        command: str | None = None,
        exclude: str | None = None,
    ) -> RunRecord | None:
        """The newest run, optionally filtered/excluding one run id."""
        clauses: list[str] = []
        params: list[Any] = []
        if command is not None:
            clauses.append("command = ?")
            params.append(command)
        if exclude is not None:
            clauses.append("id != ?")
            params.append(exclude)
        for record in self._select(
            " AND ".join(clauses), tuple(params), limit=1
        ):
            return record
        return None

    def run_count(self) -> int:
        """Total rows (including any corrupt ones)."""
        (count,) = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(count)

    def __len__(self) -> int:
        return self.run_count()

    # -------------------------------------------------------------- export

    def export_jsonl(self, path: str | os.PathLike) -> int:
        """Write every readable row as one JSON object per line.

        Returns the number of rows written (corrupt rows are skipped,
        consistent with :meth:`runs`).
        """
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            for record in self._select():
                handle.write(json.dumps(record.to_dict(), sort_keys=True,
                                        default=str))
                handle.write("\n")
                written += 1
        return written

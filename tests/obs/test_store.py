"""Tests for the telemetry ledger (repro.obs.store)."""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.obs.store import (
    LEDGER_SCHEMA_VERSION,
    LedgerStore,
    default_ledger_path,
    ledger_enabled,
    open_ledger,
)
from repro.obs.validate import validate_ledger, validate_pool_metrics


@pytest.fixture
def store(tmp_path):
    with LedgerStore(tmp_path / "ledger.sqlite") as ledger:
        yield ledger


def _record(store, **overrides):
    kwargs = dict(
        command="sweep",
        manifest={"command": "sweep", "git_rev": "abc123def456"},
        metrics={"pool.dispatched_tasks": {"type": "counter", "value": 10}},
        duration_seconds=1.5,
        exit_status=0,
    )
    kwargs.update(overrides)
    return store.record_run(**kwargs)


class TestRecordAndRead:
    def test_round_trip(self, store):
        run_id = _record(
            store,
            quality=[{"benchmark": "bench", "policy": "ranking",
                      "parameter": 0.5, "objective": "area",
                      "error_rate": 0.01, "area": 70.0, "literals": 69}],
            stage_timings={"assign": {"seconds": 0.2, "runs": 1}},
        )
        record = store.get(run_id)
        assert record is not None
        assert record.command == "sweep"
        assert record.git_rev == "abc123def456"
        assert record.duration_seconds == 1.5
        assert record.exit_status == 0
        assert not record.interrupted
        assert record.schema_version == LEDGER_SCHEMA_VERSION
        assert record.quality[0]["area"] == 70.0
        assert record.stage_timings["assign"]["runs"] == 1

    def test_get_by_unique_prefix(self, store):
        run_id = _record(store)
        assert store.get(run_id[:12]).run_id == run_id

    def test_ambiguous_prefix_returns_none(self, store):
        a = _record(store)
        b = _record(store)
        common = ""
        for x, y in zip(a, b):
            if x != y:
                break
            common += x
        if common:  # ids share at least the timestamp prefix
            assert store.get(common) is None

    def test_runs_filters_by_command_and_rev(self, store):
        _record(store, command="sweep")
        _record(store, command="synth",
                manifest={"command": "synth", "git_rev": "fff000"})
        assert [r.command for r in store.runs(command="synth")] == ["synth"]
        assert len(store.runs(git_rev="abc123")) == 1
        assert len(store.runs(limit=1)) == 1

    def test_latest_excludes(self, store):
        first = _record(store)
        second = _record(store)
        latest = store.latest(exclude=second)
        assert latest is not None and latest.run_id == first

    def test_replace_finalises_partial_row(self, store):
        run_id = _record(store, interrupted=True, exit_status=None)
        assert store.get(run_id).interrupted
        _record(store, run_id=run_id, interrupted=False, exit_status=0)
        record = store.get(run_id)
        assert not record.interrupted
        assert record.exit_status == 0
        assert store.run_count() == 1

    def test_export_jsonl(self, store, tmp_path):
        _record(store)
        _record(store, command="synth")
        out = tmp_path / "export.jsonl"
        assert store.export_jsonl(out) == 2
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert {line["command"] for line in lines} == {"sweep", "synth"}


class TestRecovery:
    def test_corrupt_file_moved_aside(self, tmp_path):
        path = tmp_path / "ledger.sqlite"
        path.write_bytes(b"this is not a sqlite database, not even close!")
        with LedgerStore(path) as store:
            run_id = _record(store)
            assert store.get(run_id) is not None
        aside = list(tmp_path.glob("ledger.sqlite.corrupt-*"))
        assert len(aside) == 1
        assert aside[0].read_bytes().startswith(b"this is not")

    def test_corrupt_row_skipped_not_fatal(self, store):
        good = _record(store)
        store._conn.execute(
            "UPDATE runs SET manifest = ? WHERE id != ?",
            ("{broken json", "none"),
        )
        store._conn.commit()
        bad = _record(store, command="synth")
        store._conn.execute(
            "UPDATE runs SET metrics = ? WHERE id = ?", ("{nope", bad)
        )
        store._conn.commit()
        records = store.runs()
        assert records == []
        assert store.run_count() == 2  # rows exist, just unreadable

    def test_partially_corrupt_ledger_keeps_good_rows(self, store):
        good = _record(store)
        bad = _record(store, command="synth")
        store._conn.execute(
            "UPDATE runs SET quality = ? WHERE id = ?", ("[oops", bad)
        )
        store._conn.commit()
        survivors = store.runs()
        assert [r.run_id for r in survivors] == [good]


# The ``runs`` table of ledgers written while the warm pool still shipped
# per-worker health and the substrate benchmark still stored its timings:
# two more JSON columns, ``worker_health``, which every ``--jobs 2`` row
# filled, and ``extra``, which only that benchmark's rows filled.
_OLD_TABLE_SQL = """
CREATE TABLE runs (
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
    profile TEXT,
    worker_health TEXT,
    extra TEXT
)
"""


class TestOlderLedger:
    def test_worker_health_ledger_reads_appends_and_validates(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "old.sqlite"
        old_id = "20260101T000000-aaaa0001"
        metrics = {
            "pool.completed_tasks": {"type": "counter", "value": 4},
            "pool.workers": {"type": "gauge", "value": 2},
            "pool.workers_stalled": {"type": "gauge", "value": 0},
            "pool.worker.4242.rss_bytes": {"type": "gauge", "value": 9e7},
            "pool.worker.4242.tasks_done": {"type": "gauge", "value": 4},
            "pool.worker.4242.last_seen": {"type": "gauge", "value": 1.7e9},
            # Written before the registry held counters only.
            "cache.entries": {"type": "gauge", "value": 3},
            "cache.hit_rate": {"type": "gauge", "value": 0.25},
            "espresso.iterations_per_call": {
                "type": "histogram", "bounds": [1, 2, 3, 5, 8, 13, 20],
                "counts": [13, 3, 0, 0, 0, 0, 0, 0], "sum": 19.0, "count": 16,
            },
        }
        health = {
            "workers": [{"pid": 4242, "rss_bytes": 90000000,
                         "tasks_done": 4, "last_seen": 1.7e9,
                         "stalled": False, "stall_count": 0}],
            "stall_events": [],
        }
        extra = {"bench": {
            "espresso_n9": {"mean_seconds": 0.031, "min_seconds": 0.027,
                            "seed_baseline_seconds": 0.148,
                            "speedup_vs_seed": 5.48},
            "sim_packed_vs_bool": {"num_pis": 14, "num_nodes": 30,
                                   "quick": False, "speedup": 11.2},
        }}
        conn = sqlite3.connect(path)
        conn.execute(_OLD_TABLE_SQL)
        conn.execute(
            "INSERT INTO runs VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (old_id, "2026-01-01T00:00:00Z", "sweep", "abc123def456", 2.5,
             0, 0, 1, json.dumps({"command": "sweep"}), json.dumps(metrics),
             "{}", "[]", None, json.dumps(health), json.dumps(extra)),
        )
        conn.commit()
        conn.close()

        with LedgerStore(path) as store:
            record = store.get(old_id)
            assert record is not None
            assert record.command == "sweep"
            assert record.metrics == metrics
            assert [r.run_id for r in store.runs()] == [old_id]
            new_id = _record(store)
            assert {r.run_id for r in store.runs()} == {old_id, new_id}
        assert validate_ledger(path) == []
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(path))
        assert main(["obs", "show", old_id]) == 0
        assert old_id in capsys.readouterr().out
        assert main(["obs", "regressions", "--baseline", old_id,
                     "--candidate", new_id]) == 0
        assert "no regressions" in capsys.readouterr().out

        assert validate_pool_metrics(
            {"pool.workers": {"type": "counter", "value": 2}}
        )
        assert validate_pool_metrics(
            {"pool.worker.abc.rss_bytes": {"type": "gauge", "value": 1}}
        )


class TestEnvironment:
    def test_default_path_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "l.sqlite"))
        assert default_ledger_path() == tmp_path / "l.sqlite"

    def test_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DISABLE", "1")
        assert not ledger_enabled()
        assert open_ledger() is None

    def test_open_ledger_uses_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(tmp_path / "l.sqlite"))
        store = open_ledger()
        assert store is not None
        with store:
            assert store.run_count() == 0

"""End-to-end tests for the telemetry ledger CLI (`repro obs ...`)."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.store import LedgerStore

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _ledger_path():
    return Path(os.environ["REPRO_LEDGER_PATH"])


def _store():
    return LedgerStore(_ledger_path())


def _seed_run(store, run_id, *, duration=1.0, error_rate=0.02, area=70.0,
              command="synth", git_rev="feedc0ffee00"):
    return store.record_run(
        command=command,
        manifest={"command": command, "git_rev": git_rev},
        metrics={},
        quality=[{
            "benchmark": "bench", "policy": "ranking", "parameter": 0.5,
            "objective": "area", "error_rate": error_rate, "area": area,
            "literals": 69,
        }],
        duration_seconds=duration,
        exit_status=0,
        run_id=run_id,
    )


class TestLedgerRecording:
    def test_synth_appends_a_run_with_quality(self, capsys):
        assert main(["synth", "bench"]) == 0
        capsys.readouterr()
        with _store() as store:
            records = store.runs()
            assert len(records) == 1
            record = records[0]
            assert record.command == "synth"
            assert record.exit_status == 0
            assert not record.interrupted
            assert len(record.quality) == 1
            assert record.quality[0]["benchmark"] == "bench"
            assert record.stage_timings  # pipeline stages were timed

    def test_obs_queries_do_not_append(self, capsys):
        assert main(["synth", "bench"]) == 0
        assert main(["obs", "runs"]) == 0
        assert main(["obs", "runs"]) == 0
        capsys.readouterr()
        with _store() as store:
            assert store.run_count() == 1

    def test_usage_error_records_exit_status_2(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["synth", "bench", "--stop-after", "teleport"])
        assert raised.value.code == 2
        capsys.readouterr()
        with _store() as store:
            (record,) = store.runs()
        assert record.command == "synth"
        assert record.exit_status == 2

    def test_message_exit_records_exit_status_1(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["synth", "no-such-benchmark"])
        assert str(raised.value.code).startswith("unknown benchmark")
        capsys.readouterr()
        with _store() as store:
            (record,) = store.runs()
        assert record.exit_status == 1

    def test_disable_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DISABLE", "1")
        assert main(["synth", "bench"]) == 0
        capsys.readouterr()
        assert not _ledger_path().exists()

    def test_profile_flag_writes_folded_and_ledger_summary(
        self, capsys, tmp_path
    ):
        folded = tmp_path / "synth.folded"
        assert main(["synth", "bench", "--profile", str(folded)]) == 0
        capsys.readouterr()
        assert folded.exists()
        assert folded.read_text().strip(), "collapsed stacks are empty"
        with _store() as store:
            record = store.runs()[0]
            assert record.profile is not None
            assert record.profile["samples"] > 0
            assert record.profile["folded_path"] == str(folded)
            assert record.profile["top"], "no top-functions table"


class TestObsRunsAndShow:
    def test_runs_lists_and_filters(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
            _seed_run(store, "20260102T000000-bbbb0002", command="sweep")
        assert main(["obs", "runs"]) == 0
        out = capsys.readouterr().out
        assert "aaaa0001" in out and "bbbb0002" in out
        assert main(["obs", "runs", "--command", "sweep"]) == 0
        out = capsys.readouterr().out
        assert "bbbb0002" in out and "aaaa0001" not in out
        assert main(["obs", "runs", "--rev", "feedc0"]) == 0
        assert "bbbb0002" in capsys.readouterr().out

    def test_runs_json(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
        assert main(["obs", "runs", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["run_id"] == "20260101T000000-aaaa0001"

    def test_show_by_prefix(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
        assert main(["obs", "show", "20260101T000000-aaaa"]) == 0
        out = capsys.readouterr().out
        assert "aaaa0001" in out
        assert "ranking" in out  # quality table rendered

    def test_show_unknown_run(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
        assert main(["obs", "show", "zzzz"]) == 2

    def test_missing_ledger_reports_cleanly(self, capsys):
        assert main(["obs", "runs"]) == 0
        assert "no telemetry ledger" in capsys.readouterr().err
        assert main(["obs", "show", "anything"]) == 2


class TestCompareAndRegressions:
    def test_equal_runs_pass(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
            _seed_run(store, "20260102T000000-bbbb0002")
        assert main(["obs", "regressions",
                     "--baseline", "20260101T000000-aaaa0001",
                     "--candidate", "20260102T000000-bbbb0002"]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_seeded_slowdown_fails_with_named_metric(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001", duration=1.0)
            _seed_run(store, "20260102T000000-bbbb0002", duration=1.3)
        assert main(["obs", "regressions",
                     "--baseline", "20260101T000000-aaaa0001",
                     "--candidate", "20260102T000000-bbbb0002"]) == 1
        out = capsys.readouterr().out
        assert "duration_seconds" in out
        assert "REGRESSIONS" in out

    def test_seeded_quality_delta_fails_with_named_metric(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
            _seed_run(store, "20260102T000000-bbbb0002", error_rate=0.08)
        assert main(["obs", "regressions",
                     "--baseline", "20260101T000000-aaaa0001"]) == 1
        out = capsys.readouterr().out
        assert "error_rate" in out

    def test_regressions_latest_candidate_passes_when_equal(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
            _seed_run(store, "20260102T000000-bbbb0002")
        assert main(["obs", "regressions",
                     "--baseline", "20260101T000000-aaaa0001"]) == 0

    def test_regressions_baseline_by_git_rev(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001",
                      git_rev="0123abcd0000")
            _seed_run(store, "20260102T000000-bbbb0002", area=95.0,
                      git_rev="4567efff1111")
        assert main(["obs", "regressions", "--baseline", "0123abcd"]) == 1
        assert "area" in capsys.readouterr().out

    def test_tolerance_flags(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001", duration=1.0)
            _seed_run(store, "20260102T000000-bbbb0002", duration=1.3)
        assert main(["obs", "regressions",
                     "--baseline", "20260101T000000-aaaa0001",
                     "--candidate", "20260102T000000-bbbb0002",
                     "--wall-tolerance", "0.5"]) == 0

    def test_json_output(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
            _seed_run(store, "20260102T000000-bbbb0002", error_rate=0.5)
        assert main(["obs", "regressions", "--json",
                     "--baseline", "20260101T000000-aaaa0001"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["regressions"][0]["kind"] == "quality"


class TestExportAndInfo:
    def test_export_jsonl_validates(self, capsys, tmp_path):
        from repro.obs.validate import validate_file

        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
        out = tmp_path / "ledger.jsonl"
        assert main(["obs", "export", str(out)]) == 0
        capsys.readouterr()
        assert validate_file(out) == []

    def test_info_json_reports_ledger(self, capsys):
        with _store() as store:
            _seed_run(store, "20260101T000000-aaaa0001")
        assert main(["info", "bench", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ledger"]["runs"] == 1
        assert data["ledger"]["schema_version"] == 1
        assert data["ledger"]["path"] == str(_ledger_path())

    def test_ledger_sqlite_validates(self, capsys):
        from repro.obs.validate import validate_file

        assert main(["synth", "bench"]) == 0
        capsys.readouterr()
        assert validate_file(_ledger_path()) == []


class TestInterruptedRuns:
    def _run_script(self, body, tmp_path):
        script = tmp_path / "victim.py"
        script.write_text(body)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env["REPRO_LEDGER_PATH"] = str(_ledger_path())
        return subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_sigterm_flushes_partial_telemetry(self, tmp_path):
        metrics_out = tmp_path / "victim-metrics.json"
        proc = self._run_script(
            "import os, signal, time\n"
            "from repro.obs.session import ObsSession\n"
            "session = ObsSession('victim', argv=[],\n"
            f"                     metrics_path={str(metrics_out)!r})\n"
            "with session:\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    time.sleep(30)\n",
            tmp_path,
        )
        assert proc.returncode == -signal.SIGTERM, proc.stderr
        with _store() as store:
            records = store.runs(command="victim")
            assert len(records) == 1
            assert records[0].interrupted
        manifest = json.loads(metrics_out.read_text())["manifest"]
        assert manifest["command"] == "victim"

    def test_atexit_flushes_unclosed_session(self, tmp_path):
        proc = self._run_script(
            "from repro.obs.session import ObsSession\n"
            "session = ObsSession('victim2', argv=[])\n"
            "session.__enter__()\n"
            "# interpreter exits without __exit__: atexit must flush\n",
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        with _store() as store:
            records = store.runs(command="victim2")
            assert len(records) == 1
            assert records[0].interrupted

    def test_normal_exit_finalises_single_row(self, capsys):
        assert main(["synth", "bench"]) == 0
        capsys.readouterr()
        with _store() as store:
            records = store.runs()
            assert len(records) == 1
            assert not records[0].interrupted

"""CLI tests for ``repro bench``, ``repro report`` and the info listings."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.store import LedgerStore
from repro.scenarios import Scenario, register_scenario

# Registered once per test process; registration is idempotent.
register_scenario(Scenario(
    name="cli-tiny",
    description="tiny CLI test scenario",
    benchmarks=("bench",),
    fault_model={"model": "multibit", "k": 2},
    policies=({"policy": "conventional"},),
    objective="area",
))


class TestBench:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "paper-single-bit" in out
        assert "stuck-at-smoke" in out
        assert "cli-tiny" in out

    def test_no_scenario_prints_registry_and_fails(self, capsys):
        assert main(["bench"]) == 2
        captured = capsys.readouterr()
        assert "no scenario named" in captured.err
        assert "paper-single-bit" in captured.out

    def test_unknown_scenario(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["bench", "definitely-not-registered"])

    def test_run_writes_matrix(self, tmp_path, capsys):
        out = tmp_path / "BENCH_scenarios.json"
        assert main(["bench", "cli-tiny", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "cli-tiny" in stdout
        matrix = json.loads(out.read_text())
        entry = matrix["scenarios"]["cli-tiny"]
        assert entry["fault_model"] == {"model": "multibit", "k": 2}
        assert len(entry["rows"]) == 1

    def test_ledger_quality_is_scenario_prefixed(self, tmp_path, capsys):
        assert main(["bench", "cli-tiny", "--out", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        with LedgerStore(os.environ["REPRO_LEDGER_PATH"]) as store:
            (record,) = store.runs()
        (quality,) = record.quality
        assert quality["benchmark"] == "cli-tiny:bench"
        assert quality["policy"] == "conventional"
        assert "error_rate" in quality

    def test_run_json_output(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["bench", "cli-tiny", "--out", str(out), "--json"]) == 0
        matrix = json.loads(capsys.readouterr().out)
        assert "cli-tiny" in matrix["scenarios"]


class TestReport:
    def test_table(self, capsys):
        assert main(["report", "bench", "--policy", "cfactor",
                     "--burst", "2", "--samples", "2000"]) == 0
        out = capsys.readouterr().out
        assert "single_bit (exact)" in out
        assert "multibit k=2 (exact)" in out
        assert "burst w=2 (exact)" in out
        assert "monte-carlo" in out

    def test_json(self, capsys):
        assert main(["report", "bench", "--distances", "2", "3",
                     "--samples", "2000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        models = [row["model"] for row in payload["error_models"]]
        assert "single_bit (exact)" in models
        assert "multibit k=3 (exact)" in models
        sampled = [row for row in payload["error_models"]
                   if "stderr" in row]
        assert sampled and sampled[0]["samples"] == 2000

    def test_report_matches_synth_error(self, capsys):
        """The exact single-bit row is the flow's own error-rate figure."""
        from repro.benchgen import mcnc_benchmark
        from repro.flows.experiment import run_flow

        direct = run_flow(mcnc_benchmark("bench"), "conventional",
                          objective="area")
        assert main(["report", "bench", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        single_bit = payload["error_models"][0]
        assert single_bit["rate"] == direct.error_rate


class TestInfoListings:
    def test_info_json_lists_fault_models_and_scenarios(self, capsys):
        assert main(["info", "bench", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        model_names = [m["name"] for m in payload["fault_models"]]
        assert "single_bit" in model_names
        assert "stuck_at" in model_names
        scenario_names = [s["name"] for s in payload["scenarios"]]
        assert "paper-single-bit" in scenario_names

"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.pla import read_pla, write_pla


@pytest.fixture
def pla_file(tmp_path):
    rng = np.random.default_rng(5)
    phases = rng.choice(
        np.array([OFF, ON, DC], dtype=np.uint8), size=(2, 64), p=[0.3, 0.3, 0.4]
    )
    spec = FunctionSpec(phases, name="clitest")
    path = tmp_path / "clitest.pla"
    write_pla(spec, path)
    return str(path)


class TestCli:
    def test_info(self, pla_file, capsys):
        assert main(["info", pla_file]) == 0
        out = capsys.readouterr().out
        assert "inputs" in out
        assert "C^f" in out

    def test_info_registry_name(self, capsys):
        assert main(["info", "bench"]) == 0
        out = capsys.readouterr().out
        assert "inputs" in out
        assert "6" in out  # bench has 6 inputs

    def test_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["info", "does-not-exist"])

    def test_assign_writes_pla(self, pla_file, tmp_path, capsys):
        out_path = str(tmp_path / "assigned.pla")
        assert main([
            "assign", pla_file, "--policy", "ranking", "--fraction", "0.5",
            "-o", out_path,
        ]) == 0
        original = read_pla(pla_file)
        assigned = read_pla(out_path)
        assert np.count_nonzero(assigned.phases == DC) < np.count_nonzero(
            original.phases == DC
        )
        # The partial assignment only decides DC entries: care sets agree.
        care = original.care_mask()
        assert bool(np.all(assigned.phases[care] == original.phases[care]))
        assert "decided" in capsys.readouterr().out

    def test_synth(self, pla_file, capsys):
        assert main(["synth", pla_file, "--objective", "area"]) == 0
        out = capsys.readouterr().out
        assert "area" in out
        assert "error rate" in out

    def test_estimate(self, pla_file, capsys):
        assert main(["estimate", pla_file]) == 0
        out = capsys.readouterr().out
        assert "border/Poisson" in out
        assert "signal-probability" in out

    def test_sweep(self, pla_file, capsys):
        assert main(["sweep", pla_file, "--points", "3", "--objective", "area"]) == 0
        out = capsys.readouterr().out
        assert "fraction" in out
        assert out.count("\n") >= 4

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_sweep_rejects_fewer_than_two_points(self, pla_file, points, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", pla_file, "--points", points])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--points: must be at least 2" in captured.err
        assert captured.out == ""

    def test_gen(self, tmp_path, capsys):
        out_path = str(tmp_path / "gen.pla")
        assert main([
            "gen", "--inputs", "7", "--outputs", "2", "--cf", "0.6",
            "--dc", "0.5", "-o", out_path,
        ]) == 0
        spec = read_pla(out_path)
        assert spec.num_inputs == 7
        assert spec.num_outputs == 2
        assert "generated" in capsys.readouterr().out


class TestCliObservability:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_info_json(self, pla_file, capsys):
        import json

        assert main(["info", pla_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "clitest"
        assert payload["inputs"] == 6
        assert payload["outputs"] == 2
        assert 0.0 <= payload["dc_fraction"] <= 1.0

    def test_sweep_writes_obs_artifacts(self, pla_file, tmp_path, capsys):
        import json

        from repro.obs.validate import validate_file

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        manifest = tmp_path / "manifest.json"
        assert main([
            "sweep", pla_file, "--points", "2", "--objective", "area",
            "--trace", str(trace), "--metrics-out", str(metrics),
            "--manifest", str(manifest),
        ]) == 0
        capsys.readouterr()
        for path in (trace, metrics, manifest):
            assert path.exists()
            assert validate_file(path) == [], path.name
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert "sweep.fraction" in {event["name"] for event in events}
        document = json.loads(metrics.read_text())
        assert document["metrics"]["flow.runs"]["value"] == 2
        assert "cache.hits" in document["metrics"]
        mani = json.loads(manifest.read_text())
        assert mani["command"] == "sweep"
        assert mani["exit_status"] == 0
        assert mani["parameters"]["points"] == 2

    def test_sweep_cache_stats_cover_worker_processes(
        self, pla_file, tmp_path, capsys
    ):
        import json
        import re

        metrics = tmp_path / "metrics.json"
        assert main([
            "sweep", pla_file, "--points", "3", "--objective", "area",
            "--jobs", "2", "--cache-stats", "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        hits, misses = map(
            int, re.search(r"(\d+) hits / (\d+) misses", out).groups()
        )
        document = json.loads(metrics.read_text())["metrics"]
        assert misses == document["cache.misses"]["value"] > 0
        assert hits == document["cache.hits"]["value"]

    def test_sweep_progress_renders_to_stderr(self, pla_file, capsys):
        assert main([
            "sweep", pla_file, "--points", "2", "--objective", "area",
            "--progress",
        ]) == 0
        err = capsys.readouterr().err
        assert "2/2" in err

    def test_commands_run_clean_without_obs_flags(self, pla_file, capsys):
        # The obs plumbing must stay invisible when no flag is passed.
        assert main(["info", pla_file]) == 0
        assert capsys.readouterr().err == ""


class TestCliPipeline:
    def test_stages_table(self, capsys):
        assert main(["pipeline", "stages"]) == 0
        out = capsys.readouterr().out
        for name in ("assign", "espresso", "optimize", "map", "tune", "measure"):
            assert name in out

    def test_stages_json(self, capsys):
        import json

        assert main(["pipeline", "stages", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assign"]["inputs"] == ["spec"]
        assert payload["measure"]["outputs"] == ["implemented", "synthesis"]

    def test_info_json_lists_stages(self, pla_file, capsys):
        import json

        assert main(["info", pla_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for name in ("assign", "espresso", "measure"):
            assert name in payload["pipeline_stages"]

    def test_run_table(self, pla_file, capsys):
        assert main(["pipeline", "run", pla_file, "--objective", "area"]) == 0
        out = capsys.readouterr().out
        assert "error rate" in out
        assert "6 stage(s) run, 0 restored" in out

    def test_run_checkpointed_twice(self, pla_file, tmp_path, capsys):
        import json

        ckpt = str(tmp_path / "ckpt")
        argv = ["pipeline", "run", pla_file, "--objective", "area",
                "--checkpoint-dir", ckpt, "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["pipeline"]["stages_run"] == 6
        assert first["pipeline"]["stages_skipped"] == 0
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["pipeline"]["stages_run"] == 0
        assert second["pipeline"]["stages_skipped"] == 6
        assert second["result"] == first["result"]

    def test_run_stop_after(self, pla_file, capsys):
        assert main(["pipeline", "run", pla_file, "--stop-after",
                     "espresso"]) == 0
        out = capsys.readouterr().out
        assert "stopped with artefacts" in out
        assert "network" in out

    def test_run_config_file(self, pla_file, tmp_path, capsys):
        import json

        config = {
            "name": "cli-config",
            "params": {"policy": "complete", "objective": "area"},
            "stages": ["assign", "espresso", "optimize", "map", "tune",
                       "measure"],
        }
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "run", pla_file, "--config", str(path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"]["name"] == "cli-config"
        assert payload["result"]["policy"] == "complete"

    def test_run_complete_dc_flag(self, pla_file, capsys):
        import json

        argv = ["pipeline", "run", pla_file, "--objective", "area", "--json"]
        assert main(argv) == 0
        baseline = json.loads(capsys.readouterr().out)
        assert "complete_dc" not in baseline["pipeline"]

        assert main(argv + ["--complete-dc"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"]["stages_run"] == 7
        report = payload["pipeline"]["complete_dc"]
        assert report["nodes_considered"] > 0
        assert report["dc_delta"] >= 0
        # POs are preserved, so the measured reliability is unchanged.
        assert (
            payload["result"]["error_rate"] == baseline["result"]["error_rate"]
        )

    def test_sweep_checkpoint_dir(self, pla_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["sweep", pla_file, "--points", "2", "--objective",
                     "area", "--checkpoint-dir", str(ckpt)]) == 0
        capsys.readouterr()
        assert list(ckpt.glob("*.ckpt"))


class TestCliExtensions:
    def test_nodal(self, pla_file, capsys):
        assert main(["nodal", pla_file, "--policy", "cfactor"]) == 0
        out = capsys.readouterr().out
        assert "internal error before" in out

    def test_nodal_with_renode(self, pla_file, capsys):
        assert main(["nodal", pla_file, "--renode", "--k", "4"]) == 0
        assert "nodes" in capsys.readouterr().out

    def test_nodal_sat(self, pla_file, capsys):
        assert main(["nodal", pla_file, "--sat", "--dc-window", "1"]) == 0
        out = capsys.readouterr().out
        assert "complete DC minterms" in out
        assert "SAT fallback nodes" in out
        assert "internal error before" in out

    def test_synth_verilog(self, pla_file, tmp_path, capsys):
        out_v = str(tmp_path / "out.v")
        assert main(["synth", pla_file, "--objective", "area",
                     "--verilog", out_v]) == 0
        text = open(out_v).read()
        assert "module" in text and "endmodule" in text

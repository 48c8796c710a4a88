"""Tests for the command-line interface."""

import json
import re

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
        # ``info`` prints the exact, signal-probability and border bands.
        from repro.core.estimates import estimate_report

        assert main(["info", pla_file]) == 0
        out = capsys.readouterr().out
        bands = estimate_report(read_pla(pla_file))
        for label, band in (("exact", bands.exact),
                            ("signal-probability", bands.signal),
                            ("border/Poisson", bands.border)):
            assert re.search(
                rf"^{re.escape(label)}\s+{band.lo:.3f}\s+{band.hi:.3f}$",
                out, re.M,
            ), (label, out)

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

    @pytest.mark.parametrize("argv, message", [
        pytest.param(
            ["synth", "bench", "--policy", "ranking", "--fraction", "1.5"],
            "--fraction: must lie in [0, 1]", id="fraction"),
        pytest.param(
            ["assign", "bench", "--policy", "cfactor", "--threshold", "2"],
            "--threshold: must lie in [0, 1]", id="threshold"),
        pytest.param(
            ["nodal", "bench", "--threshold", "5"],
            "--threshold: must lie in [0, 1]", id="nodal-threshold"),
        pytest.param(
            ["gen", "--inputs", "7", "--outputs", "2", "--cf", "1.5",
             "--dc", "0.5"],
            "--cf: must lie in [0, 1]", id="cf"),
        pytest.param(
            ["gen", "--inputs", "7", "--outputs", "2", "--cf", "0.5",
             "--dc", "x"],
            "--dc: not a number", id="dc"),
        pytest.param(
            ["sweep", "bench", "--jobs", "abc"],
            "--jobs: jobs must be an integer or 'auto'", id="jobs"),
        pytest.param(
            ["synth", "bench", "--stop-after", "teleport"],
            "--stop-after: 'teleport' is not a stage of this pipeline",
            id="stop-after-unknown"),
        pytest.param(
            ["synth", "bench", "--stop-after", "complete_dc"],
            "--stop-after: 'complete_dc' is not a stage of this pipeline",
            id="stop-after-absent-stage"),
        pytest.param(
            ["nodal", "fout", "--sat", "--dc-window", "0"],
            "--dc-window: must be at least 1", id="nodal-dc-window-0"),
        pytest.param(
            ["nodal", "fout", "--dc-window", "-3"],
            "--dc-window: must be at least 1", id="nodal-dc-window-negative"),
        pytest.param(
            ["nodal", "fout", "--renode", "--k", "0"],
            "--k: must be at least 2", id="nodal-k-0"),
        pytest.param(
            ["nodal", "fout", "--renode", "--k", "1"],
            "--k: must be at least 2", id="nodal-k-1"),
    ])
    def test_bad_flag_value_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {message}" in captured.err
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


class TestCliErrors:
    """A bad argument or an unusable input ends in one line on stderr:
    argparse's usage error (exit 2) or a ``SystemExit`` message (exit 1),
    never a traceback."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["report", "bench", "--samples", "0"],
                     "--samples: must be at least 1", id="samples-0"),
        pytest.param(["report", "bench", "--samples", "-5"],
                     "--samples: must be at least 1", id="samples-negative"),
        pytest.param(["report", "bench", "--distances", "2", "0"],
                     "--distances: must be at least 1", id="distance-0"),
        pytest.param(["report", "bench", "--distances", "9"],
                     "--distances: 9 is wider than the 6 inputs of bench",
                     id="distance-too-wide"),
        pytest.param(["report", "bench", "--burst", "0"],
                     "--burst: must be at least 1", id="burst-0"),
        pytest.param(["report", "bench", "--burst", "7"],
                     "--burst: 7 is wider than the 6 inputs of bench",
                     id="burst-too-wide"),
        pytest.param(["gen", "--inputs", "0", "--outputs", "2", "--cf", "0.5",
                      "--dc", "0.5"],
                     "--inputs: must be at least 1", id="gen-inputs-0"),
        pytest.param(["gen", "--inputs", "40", "--outputs", "2", "--cf", "0.5",
                      "--dc", "0.5"],
                     "--inputs: 40 inputs outside the dense range 1..20",
                     id="gen-inputs-40"),
        pytest.param(["gen", "--inputs", "4", "--outputs", "0", "--cf", "0.5",
                      "--dc", "0.5"],
                     "--outputs: must be at least 1", id="gen-outputs-0"),
        pytest.param(["export", "unused-dir", "--benchmarks", "nosuch"],
                     "--benchmarks: invalid choice: 'nosuch'",
                     id="export-unknown-benchmark"),
    ])
    def test_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_gen_too_wide_writes_no_file(self, tmp_path, capsys):
        out_path = tmp_path / "g.pla"
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--inputs", "21", "--outputs", "2", "--cf", "0.5",
                  "--dc", "0.5", "-o", str(out_path)])
        assert excinfo.value.code == 2
        assert "--inputs: 21 inputs outside the dense range 1..20" in (
            capsys.readouterr().err
        )
        assert not out_path.exists()

    @staticmethod
    def _one_line_exit(argv) -> str:
        """The message of a one-line ``SystemExit`` (printed, exit 1)."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    @pytest.mark.parametrize("command", [["synth", "--json"], ["info"]])
    def test_zero_input_pla(self, tmp_path, command):
        path = tmp_path / "zero.pla"
        path.write_text(".i 0\n.o 2\n 10\n.e\n")
        message = self._one_line_exit(
            [command[0], str(path), *command[1:]]
        )
        assert message == (
            f"{path}: .i: 0 inputs outside the dense range 1..20"
        )

    def test_missing_pla(self, tmp_path):
        path = tmp_path / "nosuch.pla"
        message = self._one_line_exit(["info", str(path)])
        assert message == f"{path}: No such file or directory"

    @pytest.mark.parametrize("text, reason", [
        (None, "No such file or directory"),
        ("{bad json", "invalid JSON pipeline config"),
        ("[1, 2]", "pipeline config must be a JSON object"),
        ('{"stages": ["nosuch"]}', "unknown stage 'nosuch'"),
    ], ids=["missing", "bad-json", "not-an-object", "unknown-stage"])
    def test_bad_config(self, tmp_path, text, reason):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        message = self._one_line_exit(
            ["synth", "bench", "--config", str(path)]
        )
        assert message.startswith(f"{path}: {reason}")

    def test_process_exit_status_and_stderr(self, tmp_path):
        """The real process: status 1 and the message alone on stderr."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        path = tmp_path / "nosuch.pla"
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "info", str(path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 1
        assert completed.stderr == f"{path}: No such file or directory\n"
        assert completed.stdout == ""


class TestCliObservability:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_info_json(self, pla_file, capsys):
        from repro.core.estimates import estimate_report

        assert main(["info", pla_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "clitest"
        assert payload["inputs"] == 6
        assert payload["outputs"] == 2
        assert 0.0 <= payload["dc_fraction"] <= 1.0
        bands = estimate_report(read_pla(pla_file))
        for prefix, band in (("exact", bands.exact),
                             ("signal", bands.signal),
                             ("border", bands.border)):
            assert payload[f"{prefix}_error_min"] == band.lo
            assert payload[f"{prefix}_error_max"] == band.hi

    def test_sweep_writes_obs_artifacts(self, pla_file, tmp_path, capsys):
        from repro.obs.validate import validate_file

        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main([
            "sweep", pla_file, "--points", "2", "--objective", "area",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        for path in (trace, metrics):
            assert path.exists()
            assert validate_file(path) == [], path.name
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        assert "sweep.fraction" in {event["name"] for event in events}
        document = json.loads(metrics.read_text())
        assert document["metrics"]["flow.runs"]["value"] == 2
        assert "cache.hits" in document["metrics"]
        mani = document["manifest"]
        assert mani["command"] == "sweep"
        assert mani["exit_status"] == 0
        assert mani["parameters"]["points"] == 2

    def test_sweep_cache_counters_cover_worker_processes(
        self, pla_file, tmp_path, capsys
    ):
        # Under --jobs 2 the workers minimise; the metrics document
        # counts their cache traffic.
        metrics = tmp_path / "metrics.json"
        assert main([
            "sweep", pla_file, "--points", "3", "--objective", "area",
            "--jobs", "2", "--metrics-out", str(metrics),
        ]) == 0
        capsys.readouterr()
        document = json.loads(metrics.read_text())["metrics"]
        assert document["cache.misses"]["type"] == "counter"
        assert document["cache.misses"]["value"] > 0
        assert document["cache.hits"]["type"] == "counter"

    def test_sweep_cache_counters_with_zero_hits(self, pla_file, tmp_path):
        # A fresh process whose sweep never hits the cache still lists
        # ``cache.hits``, at 0, in the --metrics-out document.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        metrics = tmp_path / "metrics.json"
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", pla_file,
             "--points", "2", "--objective", "area",
             "--metrics-out", str(metrics)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        document = json.loads(metrics.read_text())["metrics"]
        assert document["cache.hits"] == {"type": "counter", "value": 0}
        assert document["cache.misses"]["value"] > 0

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
    def test_info_json_lists_stages(self, pla_file, capsys):
        assert main(["info", pla_file, "--json"]) == 0
        stages = json.loads(capsys.readouterr().out)["pipeline_stages"]
        for name in ("assign", "espresso", "measure"):
            assert name in stages
            assert "name" not in stages[name]

    def test_stages_json(self, pla_file, capsys):
        # The JSON stage listing carries each stage's input and output
        # artefacts.
        assert main(["info", pla_file, "--json"]) == 0
        stages = json.loads(capsys.readouterr().out)["pipeline_stages"]
        assert stages["assign"]["inputs"] == ["spec"]
        assert stages["measure"]["outputs"] == ["implemented", "synthesis"]

    def test_run_table(self, pla_file, capsys):
        assert main(["synth", pla_file, "--objective", "area"]) == 0
        out = capsys.readouterr().out
        assert "error rate" in out
        assert re.search(r"^objective\s+area$", out, re.M)
        assert "6 stage(s) run, 0 restored" in out

    def test_run_checkpointed_twice(self, pla_file, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        argv = ["synth", pla_file, "--objective", "area",
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

    def test_restored_run_writes_identical_verilog(
        self, pla_file, tmp_path, capsys
    ):
        ckpt = str(tmp_path / "ckpt")
        runs = []
        for attempt in ("fresh", "restored"):
            verilog = tmp_path / f"{attempt}.v"
            assert main(["synth", pla_file, "--checkpoint-dir", ckpt,
                         "--verilog", str(verilog), "--json"]) == 0
            runs.append((json.loads(capsys.readouterr().out),
                         verilog.read_bytes()))
        (fresh, fresh_v), (restored, restored_v) = runs
        assert restored["pipeline"]["stages_run"] == 0
        assert restored["pipeline"]["stages_skipped"] == 6
        assert restored["result"] == fresh["result"]
        assert b"endmodule" in fresh_v
        assert restored_v == fresh_v

    def test_run_stop_after(self, pla_file, capsys):
        assert main(["synth", pla_file, "--stop-after", "espresso"]) == 0
        out = capsys.readouterr().out
        assert "stopped with artefacts" in out
        assert "network" in out

    def test_run_config_file(self, pla_file, tmp_path, capsys):
        config = {
            "name": "cli-config",
            "params": {"policy": "complete", "objective": "area"},
            "stages": ["assign", "espresso", "optimize", "map", "tune",
                       "measure"],
        }
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(config))
        assert main(["synth", pla_file, "--config", str(path),
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"]["name"] == "cli-config"
        assert payload["result"]["policy"] == "complete"

    def test_run_complete_dc_flag(self, pla_file, tmp_path, capsys):
        """A ``--config`` listing ``complete_dc`` after ``optimize`` runs
        the stage and reports it."""
        argv = ["synth", pla_file, "--objective", "area", "--json"]
        assert main(argv) == 0
        baseline = json.loads(capsys.readouterr().out)
        assert "complete_dc" not in baseline["pipeline"]

        path = tmp_path / "complete-dc.json"
        path.write_text(json.dumps({
            "params": {"policy": "conventional", "objective": "area"},
            "stages": ["assign", "espresso", "optimize", "complete_dc",
                       "map", "tune", "measure"],
        }))
        assert main(["synth", pla_file, "--config", str(path),
                     "--json"]) == 0
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

    def test_synth_verilog_without_netlist_is_a_usage_error(
        self, pla_file, tmp_path, capsys
    ):
        verilog = tmp_path / "out.v"
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", pla_file, "--stop-after", "espresso",
                  "--verilog", str(verilog)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "argument --verilog: no stage of this run produces a " \
            "netlist" in captured.err
        assert captured.out == ""
        assert not verilog.exists()

    def test_synth_verilog_comes_from_the_one_flow_run(
        self, pla_file, tmp_path, capsys
    ):
        metrics = tmp_path / "metrics.json"
        assert main(["synth", pla_file, "--policy", "cfactor",
                     "--objective", "area", "--verilog",
                     str(tmp_path / "out.v"), "--metrics-out",
                     str(metrics)]) == 0
        capsys.readouterr()
        document = json.loads(metrics.read_text())["metrics"]
        assert document["pipeline.runs"]["value"] == 1
        assert document["synth.networks_compiled"]["value"] == 1

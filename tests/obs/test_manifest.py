"""Tests for run manifests, the ObsSession glue, and artefact validation."""

import json

import pytest

from repro.obs import ObsSession, collect_manifest, validate_manifest
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, git_revision
from repro.obs.validate import main as validate_main, validate_file


def _write_bare_manifest(manifest, path):
    """Write *manifest* alone, as earlier releases wrote manifest files."""
    path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True,
                               default=str) + "\n")


class TestManifest:
    def test_collect_fills_environment(self):
        manifest = collect_manifest(
            "sweep", argv=["sweep", "bench"], parameters={"points": 5}, seed=7
        )
        assert manifest.command == "sweep"
        assert manifest.parameters == {"points": 5}
        assert manifest.seed == 7
        assert manifest.python_version.count(".") == 2
        assert manifest.numpy_version
        assert manifest.schema_version == MANIFEST_SCHEMA_VERSION
        assert manifest.started_at.endswith("Z")

    def test_git_revision_in_repo(self):
        # The test suite runs inside the repository, so a rev must resolve.
        rev = git_revision()
        assert rev is None or len(rev) == 40

    def test_roundtrip_validates(self, tmp_path):
        manifest = collect_manifest("info", parameters={"benchmark": "bench"})
        manifest.duration_seconds = 0.5
        manifest.exit_status = 0
        path = tmp_path / "manifest.json"
        _write_bare_manifest(manifest, path)
        data = json.loads(path.read_text())
        assert validate_manifest(data) == []

    def test_validate_rejects_malformed(self):
        assert validate_manifest([]) != []
        assert any(
            "command" in problem for problem in validate_manifest({})
        )
        bad = collect_manifest("x").to_dict()
        bad["metrics"] = {"m": {"no_type": True}}
        assert any("lacks a type" in problem for problem in validate_manifest(bad))
        versioned = collect_manifest("x").to_dict()
        versioned["schema_version"] = 999
        assert any("schema_version" in p for p in validate_manifest(versioned))


class TestObsSession:
    def test_session_writes_all_artifacts(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        session = ObsSession(
            "demo",
            parameters={"k": 1},
            trace_path=str(trace_path),
            metrics_path=str(metrics_path),
        )
        from repro.obs import span

        with session:
            with span("demo.work"):
                pass
            session.exit_status = 0
        assert validate_file(trace_path) == []
        assert validate_file(metrics_path) == []
        document = json.loads(metrics_path.read_text())
        assert document["manifest"]["command"] == "demo"
        assert document["manifest"]["exit_status"] == 0
        assert document["manifest"]["duration_seconds"] >= 0

    def test_session_writes_on_failure(self, tmp_path):
        metrics_path = tmp_path / "fail.json"
        session = ObsSession("demo", metrics_path=str(metrics_path))
        with pytest.raises(RuntimeError):
            with session:
                raise RuntimeError("boom")
        data = json.loads(metrics_path.read_text())["manifest"]
        assert data["exit_status"] == 1

    def test_progress_reporter_only_when_enabled(self):
        session = ObsSession("demo", progress=False)
        assert session.progress_reporter(total=3) is None
        session = ObsSession("demo", progress=True)
        reporter = session.progress_reporter(total=3)
        assert reporter is not None


class TestValidateCli:
    def test_main_ok_and_failure_paths(self, tmp_path, capsys):
        good = tmp_path / "manifest.json"
        _write_bare_manifest(collect_manifest("x"), good)
        assert validate_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert validate_main([str(bad)]) == 1
        missing = tmp_path / "missing.json"
        assert validate_main([str(missing)]) == 2
        assert validate_main([]) == 2
        capsys.readouterr()

"""Tests for scenario execution and the BENCH_scenarios.json matrix."""

import json

import pytest

from repro.flows.experiment import run_flow
from repro.perf.pool import available_cpus
from repro.scenarios import (
    SCENARIO_MATRIX_SCHEMA_VERSION,
    Scenario,
    run_scenario,
    scenario_specs,
    write_scenario_matrix,
)

TINY = Scenario(
    name="tiny-single-bit",
    description="one benchmark, two policies",
    benchmarks=("bench",),
    fault_model="single_bit",
    policies=(
        {"policy": "conventional"},
        {"policy": "cfactor", "threshold": 0.55},
    ),
    objective="area",
)

TINY_STUCK = Scenario(
    name="tiny-stuck-at",
    description="stuck-at-1 on one benchmark",
    benchmarks=("bench",),
    fault_model={"model": "stuck_at", "value": 1},
    policies=({"policy": "conventional"},),
    objective="area",
)


@pytest.fixture(scope="module")
def tiny_result():
    return run_scenario(TINY)


class TestRunScenario:
    def test_points_and_ordering(self, tiny_result):
        assert [(p.benchmark, p.policy) for p in tiny_result.points] == [
            ("bench", "conventional"), ("bench", "cfactor"),
        ]
        assert tiny_result.fault_model == {"model": "single_bit"}

    def test_single_bit_point_matches_run_flow(self, tiny_result):
        """The scenario path reproduces the direct flow bit-identically."""
        spec = scenario_specs(TINY)[0]
        direct = run_flow(spec, "conventional", objective="area")
        point = tiny_result.points[0]
        assert point.error_rate == direct.error_rate
        assert point.area == direct.area
        assert point.literals == direct.literals

    def test_quality_dict_is_scenario_prefixed(self, tiny_result):
        quality = tiny_result.points[0].quality_dict()
        assert quality["benchmark"] == "tiny-single-bit:bench"
        assert quality["policy"] == "conventional"
        assert "error_rate" in quality

    def test_node_scope_scenario_runs(self, tiny_result):
        result = run_scenario(TINY_STUCK)
        (point,) = result.points
        assert 0.0 <= point.error_rate <= 1.0
        # The stuck-at rate is a different quantity from the input rate.
        assert point.error_rate != tiny_result.points[0].error_rate

    def test_parallel_matches_serial(self, tiny_result):
        parallel = run_scenario(TINY, jobs=2)
        assert [p.error_rate for p in parallel.points] == [
            p.error_rate for p in tiny_result.points
        ]

    @pytest.mark.parametrize("jobs", ["auto", "2", 5])
    def test_manifest_records_resolved_jobs(self, jobs):
        """The manifest holds the worker count used, capped at TINY's 2 points."""
        expected = min(available_cpus(), 2) if jobs == "auto" else 2
        result = run_scenario(TINY, jobs=jobs)
        assert result.jobs == expected
        assert result.matrix_entry()["manifest"]["jobs"] == expected

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("not-a-scenario")


class TestMatrixFile:
    def test_write_and_merge(self, tmp_path, tiny_result):
        path = tmp_path / "BENCH_scenarios.json"
        first = write_scenario_matrix(path, [tiny_result])
        assert first["schema_version"] == SCENARIO_MATRIX_SCHEMA_VERSION
        assert set(first["scenarios"]) == {"tiny-single-bit"}

        stuck = run_scenario(TINY_STUCK)
        merged = write_scenario_matrix(path, [stuck])
        assert set(merged["scenarios"]) == {"tiny-single-bit", "tiny-stuck-at"}
        on_disk = json.loads(path.read_text())
        assert on_disk == merged

    def test_entry_shape(self, tmp_path, tiny_result):
        path = tmp_path / "m.json"
        matrix = write_scenario_matrix(path, [tiny_result])
        entry = matrix["scenarios"]["tiny-single-bit"]
        assert entry["fault_model"] == {"model": "single_bit"}
        assert entry["points"] == 2
        assert len(entry["rows"]) == 2
        row = entry["rows"][0]
        assert {"benchmark", "policy", "error_rate", "area"} <= set(row)
        assert "repro_version" in entry["manifest"]
        assert entry["manifest"]["benchmarks"] == ["bench"]

    def test_replaces_same_scenario(self, tmp_path, tiny_result):
        path = tmp_path / "m.json"
        write_scenario_matrix(path, [tiny_result])
        again = write_scenario_matrix(path, [tiny_result])
        assert len(again["scenarios"]) == 1

    def test_schema_mismatch_starts_fresh(self, tmp_path, tiny_result):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema_version": 999, "scenarios": {
            "stale": {}
        }}))
        matrix = write_scenario_matrix(path, [tiny_result])
        assert set(matrix["scenarios"]) == {"tiny-single-bit"}

    def test_corrupt_file_starts_fresh(self, tmp_path, tiny_result):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        matrix = write_scenario_matrix(path, [tiny_result])
        assert set(matrix["scenarios"]) == {"tiny-single-bit"}

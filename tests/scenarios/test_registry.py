"""Tests for the scenario data model and registry."""

import pytest

from repro.scenarios import (
    Scenario,
    describe_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_specs,
)


class TestBuiltinRoster:
    def test_builtins_registered(self):
        names = scenario_names()
        for expected in ("paper-single-bit", "multibit-k2", "burst-w2",
                         "stuck-at-smoke", "synthetic-single-bit"):
            assert expected in names

    def test_paper_scenario_covers_all_policies(self):
        scenario = get_scenario("paper-single-bit")
        assert {point["policy"] for point in scenario.policies} == {
            "conventional", "ranking", "cfactor", "complete"
        }
        assert scenario.num_points() == 8

    def test_describe_is_json_ready(self):
        listing = describe_scenarios()
        by_name = {entry["name"]: entry for entry in listing}
        entry = by_name["multibit-k2"]
        assert entry["fault_model"] == {"model": "multibit", "k": 2}
        assert entry["points"] == 4
        assert entry["benchmarks"] == ["bench", "fout"]

    def test_unknown_scenario(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")


class TestValidationAtRegistration:
    def test_bad_policy(self):
        with pytest.raises(ValueError, match="policy"):
            register_scenario(Scenario(
                name="bad-policy", description="", benchmarks=("bench",),
                policies=({"policy": "yolo"},),
            ))

    def test_bad_objective(self):
        with pytest.raises(ValueError, match="objective"):
            register_scenario(Scenario(
                name="bad-objective", description="", benchmarks=("bench",),
                objective="vibes",
            ))

    def test_bad_fault_model(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            register_scenario(Scenario(
                name="bad-fault", description="", benchmarks=("bench",),
                fault_model="cosmic_ray",
            ))

    @pytest.mark.parametrize("point, message", [
        ({"policy": "ranking", "fracton": 0.25}, "takes only 'fraction'"),
        ({"policy": "cfactor", "fraction": 0.3}, "takes only 'threshold'"),
    ])
    def test_knob_of_another_policy(self, point, message):
        with pytest.raises(ValueError, match=message):
            register_scenario(Scenario(
                name="bad-knob", description="", benchmarks=("bench",),
                policies=(point,),
            ))

    def test_unknown_benchmark_token(self):
        with pytest.raises(ValueError, match="unknown benchmark 'nosuch'"):
            register_scenario(Scenario(
                name="bad-benchmark", description="", benchmarks=("nosuch",),
            ))

    @pytest.mark.parametrize("config, message", [
        ({"name": "g", "inputs": 4, "outputs": 2, "cf": 0.6}, r"lacks \['dc'\]"),
        ({"name": "g", "inputs": 4, "outputs": 2, "cf": 0.6, "dc": 0.4,
          "sede": 3}, r"does not take: \['sede'\]"),
    ])
    def test_bad_generated_config(self, config, message):
        with pytest.raises(ValueError, match=message):
            register_scenario(Scenario(
                name="bad-generated", description="", generated=(config,),
            ))
        assert "bad-generated" not in scenario_names()

    def test_no_benchmarks(self):
        with pytest.raises(ValueError, match="no benchmarks"):
            register_scenario(Scenario(
                name="empty", description="",
            ))

    def test_duplicate_name_with_different_content(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(Scenario(
                name="paper-single-bit", description="impostor",
                benchmarks=("bench",),
            ))

    def test_reregistering_identical_scenario_is_idempotent(self):
        scenario = get_scenario("multibit-k2")
        assert register_scenario(scenario) is scenario


class TestSpecLoading:
    def test_registry_benchmarks_load(self):
        specs = scenario_specs(get_scenario("multibit-k2"))
        assert [spec.name for spec in specs] == ["bench", "fout"]

    def test_generated_benchmarks_load(self):
        specs = scenario_specs(get_scenario("synthetic-single-bit"))
        assert [spec.name for spec in specs] == ["syn8a", "syn8b"]
        assert all(spec.num_inputs == 8 for spec in specs)

    def test_unknown_token(self):
        scenario = Scenario(
            name="unregistered", description="", benchmarks=("wat",),
        )
        with pytest.raises(ValueError, match="unknown benchmark"):
            scenario_specs(scenario)

    def test_pla_path_loading(self, tmp_path):
        from repro.benchgen import generate_spec
        from repro.pla import write_pla

        path = tmp_path / "tiny.pla"
        write_pla(
            generate_spec("tiny", 4, 2, target_cf=0.6, dc_fraction=0.4), path
        )
        scenario = Scenario(
            name="unregistered-pla", description="", benchmarks=(str(path),),
        )
        specs = scenario_specs(scenario)
        assert specs[0].num_inputs == 4

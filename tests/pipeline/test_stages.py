"""Tests for the stage registry and pipeline wiring validation."""

import pytest

from repro.pipeline import (
    DEFAULT_STAGES,
    Pipeline,
    default_config,
    describe_stage,
    get_stage,
    register_stage,
    registered_stages,
    stage_names,
    validate_objective,
)
from repro.pipeline.stage import Stage


class TestRegistry:
    def test_default_stages_registered(self):
        names = stage_names()
        for name in DEFAULT_STAGES:
            assert name in names

    def test_stages_satisfy_protocol(self):
        for stage in registered_stages().values():
            assert isinstance(stage, Stage)
            assert isinstance(stage.inputs, tuple)
            assert isinstance(stage.outputs, tuple)
            assert isinstance(stage.params, tuple)
            assert stage.version

    def test_unknown_stage_lists_registry(self):
        with pytest.raises(KeyError, match="registered stages"):
            get_stage("mystery")

    def test_reregistering_same_class_is_idempotent(self):
        cls = type(get_stage("assign"))
        assert register_stage(cls) is cls
        assert type(get_stage("assign")) is cls

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_stage
            class _Impostor:
                name = "assign"
                inputs = ()
                outputs = ()
                params = ()
                version = "1"

                def run(self, ctx):
                    pass


class TestWiring:
    def test_default_chain_is_well_wired(self):
        pipe = Pipeline(DEFAULT_STAGES)
        pipe.validate(["spec"])  # must not raise

    def test_missing_input_names_stage(self):
        # `assign` never produces the network that `map` consumes.
        pipe = Pipeline(["assign", "map"])
        with pytest.raises(ValueError, match="'map' is missing inputs"):
            pipe.validate(["spec"])

    def test_missing_initial_artifact(self):
        pipe = Pipeline(DEFAULT_STAGES)
        with pytest.raises(ValueError, match="'assign' is missing inputs"):
            pipe.validate([])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            Pipeline([])

    def test_duplicate_stage_rejected(self):
        with pytest.raises(ValueError, match="appears twice"):
            Pipeline(["assign", "assign"])

    def test_describe(self):
        described = [describe_stage(get_stage(name)) for name in DEFAULT_STAGES]
        assert [entry["name"] for entry in described] == list(DEFAULT_STAGES)
        assert described[0]["inputs"] == ["spec"]
        assert described[-1]["outputs"] == ["implemented", "synthesis"]


class TestFromConfig:
    def test_default_config_shape(self):
        config = default_config("ranking", fraction=0.5)
        pipe = Pipeline.from_config(config)
        assert pipe.name == "default-flow"
        assert pipe.params["policy"] == "ranking"
        assert pipe.params["fraction"] == 0.5
        # Entries resolve to the shared registry instances.
        assert pipe.stages == [get_stage(name) for name in DEFAULT_STAGES]

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="must be a dict"):
            Pipeline.from_config(["assign"])

    def test_missing_stages_rejected(self):
        with pytest.raises(ValueError, match="non-empty 'stages'"):
            Pipeline.from_config({"name": "empty"})

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError, match="bad stage entry"):
            Pipeline.from_config({"stages": [42]})

    def test_unknown_stage_name(self):
        with pytest.raises(KeyError, match="unknown stage"):
            Pipeline.from_config({"stages": ["assign", "transmogrify"]})

    def test_stage_entry_with_params_rejected(self):
        """Flow parameters live in the one flat ``params`` dict; a stage
        entry carrying its own is rejected, naming the entry."""
        config = {
            "params": {"policy": "conventional", "objective": "area"},
            "stages": [
                {"stage": "assign", "params": {"policy": "complete"}},
                "espresso",
            ],
        }
        with pytest.raises(ValueError, match=r"bad stage entry \{'stage': 'assign'"):
            Pipeline.from_config(config)


class TestObjectives:
    def test_validate_objective(self):
        validate_objective("area")
        with pytest.raises(ValueError, match="objective must be one of"):
            validate_objective("speed")

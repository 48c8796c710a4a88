"""Tests for the fault-model registry and declarative resolution."""

import pytest

from repro.faults import (
    MultiBitInput,
    SingleBitInput,
    create_fault_model,
    describe_fault_models,
    fault_model_names,
    registered_fault_models,
)


class TestResolution:
    def test_name_resolution(self):
        model = create_fault_model("single_bit")
        assert isinstance(model, SingleBitInput)

    def test_dict_resolution_with_params(self):
        model = create_fault_model({"model": "multibit", "k": 3})
        assert isinstance(model, MultiBitInput)
        assert model.k == 3

    def test_instance_passthrough(self):
        model = MultiBitInput(2)
        assert create_fault_model(model) is model

    def test_spec_dict_round_trip(self):
        for name, cls in registered_fault_models().items():
            model = cls()
            assert model.spec_dict()["model"] == name
            assert create_fault_model(model.spec_dict()) == model

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            create_fault_model("cosmic_ray")

    def test_bad_parameters(self):
        with pytest.raises(ValueError, match="bad parameters"):
            create_fault_model({"model": "multibit", "wat": 1})

    def test_dict_without_model_key(self):
        with pytest.raises(ValueError, match="'model'"):
            create_fault_model({"k": 2})

    def test_rejects_other_types(self):
        with pytest.raises(ValueError, match="spec must be"):
            create_fault_model(42)


class TestListing:
    def test_expected_roster(self):
        names = fault_model_names()
        for expected in ("single_bit", "multibit", "burst", "node_flip",
                         "stuck_at"):
            assert expected in names

    def test_describe_shape(self):
        listing = describe_fault_models()
        by_name = {entry["name"]: entry for entry in listing}
        assert by_name["single_bit"]["scope"] == "input"
        assert by_name["stuck_at"]["scope"] == "node"
        assert by_name["multibit"]["params"] == ["k"]
        assert all(entry["summary"] for entry in listing)

"""Unit tests for FunctionSpec."""

import numpy as np
import pytest

from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON, phase_fractions


class TestConstruction:
    def test_from_sets(self):
        spec = FunctionSpec.from_sets(3, on_sets=[[1, 2]], dc_sets=[[7]])
        assert spec.num_inputs == 3
        assert spec.num_outputs == 1
        assert list(spec.on_set(0)) == [1, 2]
        assert list(spec.dc_set(0)) == [7]
        assert list(np.flatnonzero(spec.phases[0] == OFF)) == [0, 3, 4, 5, 6]

    def test_from_sets_overlap_rejected(self):
        with pytest.raises(ValueError, match="both"):
            FunctionSpec.from_sets(3, on_sets=[[1]], dc_sets=[[1]])

    def test_from_sets_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            FunctionSpec.from_sets(3, on_sets=[[8]])

    def test_from_truth_table(self):
        spec = FunctionSpec.from_truth_table(np.array([0, 1, 1, 0]))
        assert spec.is_fully_specified
        assert list(spec.on_set(0)) == [1, 2]

    def test_default_names(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0], [1]])
        assert spec.input_names == ("x0", "x1")
        assert spec.output_names == ("y0", "y1")

    def test_name_length_validation(self):
        with pytest.raises(ValueError, match="input names"):
            FunctionSpec(np.zeros((1, 4), np.uint8), input_names=("a",))

    def test_phases_are_read_only(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0]])
        with pytest.raises(ValueError):
            spec.phases[0, 0] = ON


class TestQueries:
    def test_dc_fraction(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0]], dc_sets=[[1, 2]])
        assert spec.dc_fraction() == pytest.approx(0.5)

    def test_signal_probabilities(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0]], dc_sets=[[1, 2]])
        f0, f1, fdc = phase_fractions(spec.phases)
        assert float(f0[0]) == pytest.approx(0.25)
        assert float(f1[0]) == pytest.approx(0.25)
        assert float(fdc[0]) == pytest.approx(0.5)

    def test_evaluate(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0], []], dc_sets=[[], [3]])
        np.testing.assert_array_equal(spec.evaluate(0), [ON, OFF])
        np.testing.assert_array_equal(spec.evaluate(3), [OFF, DC])

    def test_single_output(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0], [1]])
        sub = spec.single_output(1)
        assert sub.num_outputs == 1
        assert list(sub.on_set(0)) == [1]


class TestAssignment:
    def test_assigned_completes_dcs(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0]], dc_sets=[[3]])
        values = np.array([[1, 0, 0, 1]], dtype=bool)
        full = spec.assigned(values)
        assert full.is_fully_specified
        assert list(full.on_set(0)) == [0, 3]

    def test_assigned_rejects_care_flip(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0]], dc_sets=[[3]])
        values = np.array([[0, 0, 0, 1]], dtype=bool)
        with pytest.raises(ValueError, match="care"):
            spec.assigned(values)

    def test_truth_values_requires_full(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0]], dc_sets=[[3]])
        with pytest.raises(ValueError, match="don't-care"):
            spec.truth_values()

    def test_equivalent_within_dc(self):
        spec = FunctionSpec.from_sets(2, on_sets=[[0]], dc_sets=[[3]])
        impl_a = FunctionSpec.from_truth_table(np.array([[1, 0, 0, 1]]))
        impl_b = FunctionSpec.from_truth_table(np.array([[1, 0, 0, 0]]))
        impl_c = FunctionSpec.from_truth_table(np.array([[0, 0, 0, 0]]))
        assert spec.equivalent_within_dc(impl_a)
        assert spec.equivalent_within_dc(impl_b)
        assert not spec.equivalent_within_dc(impl_c)

    def test_equality_and_hash(self):
        spec_a = FunctionSpec.from_sets(2, on_sets=[[0]])
        spec_b = FunctionSpec.from_sets(2, on_sets=[[0]])
        spec_c = FunctionSpec.from_sets(2, on_sets=[[1]])
        assert spec_a == spec_b
        assert hash(spec_a) == hash(spec_b)
        assert spec_a != spec_c

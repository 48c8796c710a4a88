"""Tests for the weighted error model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reliability import error_rate, weighted_error_rate
from repro.core.spec import FunctionSpec

from .conftest import random_spec


def completed(seed: int, n: int = 5) -> FunctionSpec:
    spec = random_spec(seed, num_inputs=n, num_outputs=2, dc_fraction=0.0)
    return spec


class TestWeighted:
    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_uniform_weights_match_error_rate(self, seed):
        spec = completed(seed)
        uniform = weighted_error_rate(spec, [1.0] * spec.num_inputs)
        assert uniform == pytest.approx(error_rate(spec))

    def test_weight_scaling_invariance(self):
        spec = completed(3)
        a = weighted_error_rate(spec, [1, 2, 3, 4, 5])
        b = weighted_error_rate(spec, [2, 4, 6, 8, 10])
        assert a == pytest.approx(b)

    def test_isolating_one_input(self):
        """Weighting a single input measures only that pin's derating."""
        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 0, 1]]))  # f = x0
        only_x0 = weighted_error_rate(spec, [1.0, 0.0])
        only_x1 = weighted_error_rate(spec, [0.0, 1.0])
        assert only_x0 == pytest.approx(1.0)  # flipping x0 always propagates
        assert only_x1 == pytest.approx(0.0)  # x1 is irrelevant

    def test_validation(self):
        spec = completed(4)
        with pytest.raises(ValueError, match="weights"):
            weighted_error_rate(spec, [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            weighted_error_rate(spec, [0.0] * spec.num_inputs)
        with pytest.raises(ValueError, match="non-negative"):
            weighted_error_rate(spec, [1.0, 1.0, -1.0, 1.0, 1.0])

"""Tests for the synthetic benchmark generator (Sec. 2.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.synthetic import (
    care_fractions_from_expected,
    generate_output,
    generate_spec,
)
from repro.core.complexity import (
    complexity_factor,
    spec_complexity_factor,
    spec_expected_complexity_factor,
)
from repro.core.truthtable import DC, OFF, ON


class TestCareFractions:
    def test_balanced(self):
        f0, f1 = care_fractions_from_expected(0.6, 0.6**2 + 2 * 0.2**2)
        assert f0 == pytest.approx(0.2)
        assert f1 == pytest.approx(0.2)

    def test_unbalanced_table1_bench(self):
        """The 'bench' row: %DC=68.9, E[C^f]=0.533."""
        f0, f1 = care_fractions_from_expected(0.689, 0.533)
        assert f0 + f1 == pytest.approx(1 - 0.689)
        assert f0**2 + f1**2 + 0.689**2 == pytest.approx(0.533, abs=1e-9)
        assert f0 >= f1

    def test_unreachable_rejected(self):
        # E[C^f] below the balanced minimum for this DC fraction.
        with pytest.raises(ValueError, match="unreachable"):
            care_fractions_from_expected(0.5, 0.25)

    @given(
        st.floats(0.0, 0.9),
        st.floats(0.0, 0.45),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, dc_fraction, f1):
        f0 = 1.0 - dc_fraction - f1
        if f0 < f1:
            return
        expected = f0 * f0 + f1 * f1 + dc_fraction * dc_fraction
        g0, g1 = care_fractions_from_expected(dc_fraction, expected)
        assert g0 == pytest.approx(f0, abs=1e-9)
        assert g1 == pytest.approx(f1, abs=1e-9)


class TestGenerateOutput:
    @pytest.mark.parametrize("target", [0.40, 0.55, 0.70, 0.78])
    def test_hits_target_cf(self, target):
        """Targets up to ~0.8 are reachable for balanced (0.2/0.2/0.6)
        fractions at n=10; beyond that the hypercube isoperimetric bound
        caps the achievable clustering for these set sizes."""
        rng = np.random.default_rng(42)
        phases = generate_output(10, target, 0.2, 0.2, rng, tolerance=0.02)
        assert complexity_factor(phases) == pytest.approx(target, abs=0.02)

    def test_high_cf_with_unbalanced_fractions(self):
        """High C^f needs small care sets (the Table 1 high-C^f rows all
        have high %DC or unbalanced care sets)."""
        rng = np.random.default_rng(43)
        phases = generate_output(10, 0.85, 0.066, 0.066, rng, tolerance=0.02)
        assert complexity_factor(phases) == pytest.approx(0.85, abs=0.02)

    def test_exact_signal_probabilities(self):
        rng = np.random.default_rng(1)
        phases = generate_output(8, 0.6, 0.3, 0.1, rng)
        size = phases.shape[0]
        assert np.count_nonzero(phases == OFF) == round(0.3 * size)
        assert np.count_nonzero(phases == ON) == round(0.1 * size)

    def test_validation(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="outside"):
            generate_output(6, 1.5, 0.3, 0.3, rng)
        with pytest.raises(ValueError, match="non-negative"):
            generate_output(6, 0.5, 0.7, 0.5, rng)

    def test_low_target_uses_checkerboard(self):
        """Targets below the random baseline require anti-clustering."""
        rng = np.random.default_rng(3)
        # E[C^f] for (0.5, 0.5, 0) is 0.5; ask for clearly less.
        phases = generate_output(8, 0.30, 0.5, 0.5, rng, tolerance=0.02)
        assert complexity_factor(phases) == pytest.approx(0.30, abs=0.02)

    def test_deterministic_for_same_rng_seed(self):
        a = generate_output(8, 0.6, 0.2, 0.2, np.random.default_rng(7))
        b = generate_output(8, 0.6, 0.2, 0.2, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestGenerateSpec:
    def test_shape_and_name(self):
        spec = generate_spec("demo", 8, 3, target_cf=0.6, dc_fraction=0.6, seed=5)
        assert spec.name == "demo"
        assert spec.num_inputs == 8
        assert spec.num_outputs == 3

    def test_dc_fraction_and_cf(self):
        spec = generate_spec("demo", 9, 4, target_cf=0.65, dc_fraction=0.6, seed=6)
        assert spec.dc_fraction() == pytest.approx(0.6, abs=0.01)
        assert spec_complexity_factor(spec) == pytest.approx(0.65, abs=0.015)

    def test_expected_cf_matched(self):
        spec = generate_spec(
            "demo", 9, 2, target_cf=0.7, dc_fraction=0.7, expected_cf=0.56, seed=7
        )
        assert spec_expected_complexity_factor(spec) == pytest.approx(0.56, abs=0.01)

    @pytest.mark.parametrize("inputs", [0, 21, 40])
    def test_width_outside_dense_range(self, inputs):
        """Rejected before any 2**n table is allocated."""
        with pytest.raises(ValueError, match="outside the dense range"):
            generate_spec("w", inputs, 1, target_cf=0.5, dc_fraction=0.5)

    def test_needs_an_output(self):
        with pytest.raises(ValueError, match="at least one output"):
            generate_spec("o", 4, 0, target_cf=0.5, dc_fraction=0.5)

    def test_seeds_differ(self):
        a = generate_spec("a", 8, 1, target_cf=0.6, dc_fraction=0.5, seed=1)
        b = generate_spec("b", 8, 1, target_cf=0.6, dc_fraction=0.5, seed=2)
        assert a != b

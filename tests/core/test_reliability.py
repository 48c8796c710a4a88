"""Tests for the exact reliability model (Sec. 5 formulas)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import Assignment
from repro.core.ranking import complete_assignment
from repro.core.reliability import (
    ErrorBounds,
    base_error_count,
    error_events,
    error_rate,
    exact_error_bounds,
    max_dc_error_count,
    min_dc_error_count,
)
from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON

from .conftest import random_spec


class TestBaseError:
    def test_counts_both_directions(self):
        """One on-off neighbour pair -> base error 2 (paper's factor of 2)."""
        phases = np.array([OFF, ON, DC, DC], dtype=np.uint8)
        assert base_error_count(phases) == 2

    def test_constant_function_has_zero(self):
        assert base_error_count(np.full(16, ON, np.uint8)) == 0

    def test_parity_has_all(self):
        idx = np.arange(16)
        bits = sum(((idx >> b) & 1 for b in range(4)), np.zeros(16, np.int64))
        phases = np.where(bits % 2 == 1, ON, OFF).astype(np.uint8)
        assert base_error_count(phases) == 4 * 16  # every neighbour pair flips

    def test_dc_pairs_do_not_count(self):
        phases = np.full(8, DC, dtype=np.uint8)
        assert base_error_count(phases) == 0


class TestDcErrorBounds:
    def test_min_max_single_dc(self):
        """DC at 0 (2 inputs): neighbours 1 (ON) and 2 (OFF)."""
        phases = np.array([DC, ON, OFF, OFF], dtype=np.uint8)
        assert min_dc_error_count(phases) == 1
        assert max_dc_error_count(phases) == 1

    def test_min_max_unbalanced(self):
        """DC at 0 (3 inputs): neighbours 1, 2 ON; 4 OFF."""
        phases = np.array([DC, ON, ON, OFF, OFF, OFF, OFF, OFF], dtype=np.uint8)
        assert min_dc_error_count(phases) == 1  # assign ON, off-neighbour errs
        assert max_dc_error_count(phases) == 2  # assign OFF, on-neighbours err

    def test_fully_specified_has_zero_dc_terms(self):
        phases = np.array([OFF, ON, ON, OFF], dtype=np.uint8)
        assert min_dc_error_count(phases) == 0
        assert max_dc_error_count(phases) == 0


class TestDecomposition:
    """error(g) == base(f) + per-DC contributions, for any completion g."""

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_any_completion_lies_in_exact_bounds(self, seed):
        spec = random_spec(seed, num_inputs=5, num_outputs=1, dc_fraction=0.5)
        rng = np.random.default_rng(seed + 1)
        values = np.where(
            spec.phases == DC, rng.integers(0, 2, spec.phases.shape), spec.phases == ON
        ).astype(bool)
        full = spec.assigned(values)
        bounds = exact_error_bounds(spec)
        rate = error_rate(full, spec=spec)
        assert bounds.lo - 1e-12 <= rate <= bounds.hi + 1e-12

    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_complete_assignment_achieves_minimum(self, seed):
        """Majority-phase assignment of every DC hits the exact lower bound."""
        spec = random_spec(seed, num_inputs=5, num_outputs=2, dc_fraction=0.4)
        assigned = complete_assignment(spec).apply(spec)
        assert assigned.is_fully_specified
        rate = error_rate(assigned, spec=spec)
        assert rate == pytest.approx(exact_error_bounds(spec).lo, abs=1e-12)

    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_minority_assignment_achieves_maximum(self, seed):
        from repro.core.hamming import neighbor_phase_counts

        spec = random_spec(seed, num_inputs=5, num_outputs=1, dc_fraction=0.4)
        assignment = Assignment()
        phases = spec.output_phases(0)
        on_nb, off_nb, _ = neighbor_phase_counts(phases)
        for m in np.flatnonzero(phases == DC):
            minority = OFF if on_nb[m] > off_nb[m] else ON
            assignment.set(0, int(m), minority)
        assigned = assignment.apply(spec)
        rate = error_rate(assigned, spec=spec)
        assert rate == pytest.approx(exact_error_bounds(spec).hi, abs=1e-12)


class TestErrorEvents:
    def test_sources_restricted_to_spec_care_set(self):
        """Errors originating in the original DC set never count."""
        spec = FunctionSpec.from_sets(2, on_sets=[[1]], dc_sets=[[0]])
        full = spec.assigned(np.array([[0, 1, 0, 0]], dtype=bool))
        # Care sources: 1 (ON), 2 (OFF), 3 (OFF).
        # 1 -> 0 (OFF): event. 1 -> 3 (OFF): event. 2 -> 0: no. 2 -> 3: no.
        # 3 -> 1 (ON): event. 3 -> 2: no. 0 is not a source.
        events = error_events(full.phases, source_mask=spec.care_mask())
        assert int(events[0]) == 3

    def test_all_sources_when_unrestricted(self):
        phases = np.array([OFF, ON, ON, OFF], dtype=np.uint8)
        assert error_events(phases) == 8  # every one of the 2*4 flips toggles

    def test_shape_mismatch_rejected(self):
        phases = np.array([OFF, ON, ON, OFF], dtype=np.uint8)
        with pytest.raises(ValueError, match="mismatch"):
            error_events(phases, source_mask=np.ones((2, 4), dtype=bool))

    def test_zero_input_function_counts_nothing(self):
        """No pin to flip: 0 events, a NaN (0 / 0) rate under the default
        single-bit flips and the single-bit model alike, no error."""
        from repro.faults import SingleBitInput

        spec = FunctionSpec(np.array([[ON], [OFF]], dtype=np.uint8))
        assert spec.num_inputs == 0
        assert error_events(spec.phases[0]) == 0
        assert np.array_equal(error_events(spec.phases), [0, 0])
        with np.errstate(invalid="ignore"):
            assert np.isnan(error_rate(spec))
            assert np.isnan(SingleBitInput().error_rate(spec))

    def test_multi_bit_pattern(self):
        """Flipping both inputs of x0 XOR x1 never changes it."""
        phases = np.array([OFF, ON, ON, OFF], dtype=np.uint8)
        assert error_events(phases, patterns=[0b11]) == 0
        assert error_events(phases, patterns=[0b01, 0b11]) == 4


class TestErrorRate:
    def test_rate_units(self):
        """Parity on 2 inputs: every flip propagates -> rate 1.0."""
        spec = FunctionSpec.from_truth_table(np.array([[0, 1, 1, 0]]))
        assert error_rate(spec) == pytest.approx(1.0)

    def test_constant_rate_zero(self):
        spec = FunctionSpec.from_truth_table(np.array([[1, 1, 1, 1]]))
        assert error_rate(spec) == pytest.approx(0.0)

    def test_spec_error_rate_partial(self, motivating_spec):
        rate = error_rate(motivating_spec, spec=motivating_spec)
        base = base_error_count(motivating_spec.phases)
        assert rate == pytest.approx(int(base[0]) / (4 * 16))

    def test_multi_output_mean(self):
        spec = FunctionSpec.from_truth_table(
            np.array([[0, 1, 1, 0], [1, 1, 1, 1]])
        )
        assert error_rate(spec) == pytest.approx(0.5)


class TestErrorBoundsClass:
    def test_contains(self):
        band = ErrorBounds(0.1, 0.3)
        assert band.contains(0.2)
        assert not band.contains(0.35)
        assert band.contains(0.35, slack=0.1)

    def test_width(self):
        assert ErrorBounds(0.1, 0.3).width == pytest.approx(0.2)

"""Tests for ranking-based DC assignment (Fig. 3), incl. the Fig. 1 example."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking import complete_assignment, rank_dc_minterms, ranking_assignment
from repro.core.reliability import error_rate, exact_error_bounds
from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON

from .conftest import random_spec


class TestMotivatingExample:
    """The Sec. 2.1 walk-through, reconstructed as a concrete function."""

    def test_ranking_order_and_phases(self, motivating_spec):
        ranked = rank_dc_minterms(motivating_spec, 0)
        assert [(m, phase) for m, _, phase in ranked] == [(0, ON), (8, OFF)]

    def test_ambiguous_minterm_left_out(self, motivating_spec):
        ranked = rank_dc_minterms(motivating_spec, 0)
        assert 5 not in {m for m, _, _ in ranked}

    def test_full_fraction_assigns_both(self, motivating_spec):
        assignment = ranking_assignment(motivating_spec, 1.0)
        assert assignment.decisions == {(0, 0): ON, (0, 8): OFF}

    def test_half_fraction_assigns_first(self, motivating_spec):
        assignment = ranking_assignment(motivating_spec, 0.5)
        assert assignment.decisions == {(0, 0): ON}

    def test_zero_fraction_assigns_nothing(self, motivating_spec):
        assert len(ranking_assignment(motivating_spec, 0.0)) == 0

    def test_assignment_masks_errors(self, motivating_spec):
        """Reliability assignment of x1, x2 masks 2+2 of the border errors."""
        reliability = ranking_assignment(motivating_spec, 1.0).apply(motivating_spec)
        # Adversarial assignment: both minterms to the minority phase.
        from repro.core.assignment import Assignment

        adversarial = Assignment({(0, 0): OFF, (0, 8): ON}).apply(motivating_spec)
        good = error_rate(reliability, spec=motivating_spec)
        bad = error_rate(adversarial, spec=motivating_spec)
        assert good < bad


class TestRankingProperties:
    def test_fraction_out_of_range(self, motivating_spec):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ranking_assignment(motivating_spec, 1.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ranking_assignment(motivating_spec, -0.1)

    def test_weights_sorted_descending(self):
        spec = random_spec(42, num_inputs=6, num_outputs=1, dc_fraction=0.5)
        ranked = rank_dc_minterms(spec, 0)
        weights = [w for _, w, _ in ranked]
        assert weights == sorted(weights, reverse=True)

    def test_only_dc_minterms_ranked(self):
        spec = random_spec(43, num_inputs=5, num_outputs=1, dc_fraction=0.3)
        dc = set(spec.dc_set(0).tolist())
        assert all(m in dc for m, _, _ in rank_dc_minterms(spec, 0))

    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_assignments_nest_with_fraction(self, seed):
        """A larger fraction extends (never contradicts) a smaller one."""
        spec = random_spec(seed, num_inputs=5, num_outputs=1, dc_fraction=0.5)
        small = ranking_assignment(spec, 0.3).decisions
        large = ranking_assignment(spec, 0.9).decisions
        assert set(small) <= set(large)
        assert all(large[key] == value for key, value in small.items())

    @given(st.integers(0, 10**9))
    @settings(max_examples=20, deadline=None)
    def test_spec_error_monotone_in_fraction(self, seed):
        """Assigning more DCs for reliability only adds minority-side events,
        so the spec-level error floor grows monotonically with fraction."""
        spec = random_spec(seed, num_inputs=5, num_outputs=1, dc_fraction=0.5)
        rates = []
        for fraction in (0.0, 0.25, 0.5, 0.75, 1.0):
            assigned = ranking_assignment(spec, fraction).apply(spec)
            rates.append(error_rate(assigned, spec=spec))
        assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))


class TestCompleteAssignment:
    def test_covers_every_dc(self):
        spec = random_spec(44, num_inputs=5, num_outputs=2, dc_fraction=0.4)
        full = complete_assignment(spec).apply(spec)
        assert full.is_fully_specified

    def test_achieves_exact_minimum(self):
        spec = random_spec(45, num_inputs=6, num_outputs=3, dc_fraction=0.6)
        full = complete_assignment(spec).apply(spec)
        assert error_rate(full, spec=spec) == pytest.approx(
            exact_error_bounds(spec).lo
        )

    def test_ranking_decisions_are_optimal(self):
        """Every ranking decision agrees with the error-minimising complete
        assignment (majority phase w.r.t. the original care neighbours), so
        ranking never closes off the exact minimum."""
        spec = random_spec(46, num_inputs=6, num_outputs=1, dc_fraction=0.5)
        ranked = ranking_assignment(spec, 1.0).decisions
        optimal = complete_assignment(spec).decisions
        assert set(ranked) <= set(optimal)
        assert all(optimal[key] == value for key, value in ranked.items())

    def test_partial_spec_rate_is_a_floor(self):
        """Unassigned (ambiguous) DCs mask at spec level, so the partially
        assigned spec measures at or below any full completion."""
        spec = random_spec(46, num_inputs=6, num_outputs=1, dc_fraction=0.5)
        ranked = ranking_assignment(spec, 1.0).apply(spec)
        complete = complete_assignment(spec).apply(spec)
        assert error_rate(ranked, spec=spec) <= error_rate(complete, spec=spec) + 1e-12

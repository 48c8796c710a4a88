"""Tests for the CNF SAT solver."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat.solver import SatSolver, luby


def check_model(clauses, model) -> bool:
    return all(
        any(model[abs(l)] == (l > 0) for l in clause) for clause in clauses
    )


def pigeonhole(pigeons, holes) -> SatSolver:
    """PHP(pigeons -> holes): unsatisfiable whenever pigeons > holes."""
    solver = SatSolver()
    def var(p, h):
        return p * holes + h + 1
    for p in range(pigeons):
        solver.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var(p1, h), -var(p2, h)])
    return solver


def brute_force_sat(clauses, num_vars) -> bool:
    """Whether any of the ``2**num_vars`` assignments satisfies *clauses*."""
    rows = np.arange(1 << num_vars)[:, None] >> np.arange(num_vars) & 1
    rows = rows.astype(bool)
    satisfied = np.ones(rows.shape[0], dtype=bool)
    for clause in clauses:
        hits = np.zeros(rows.shape[0], dtype=bool)
        for literal in clause:
            column = rows[:, abs(literal) - 1]
            hits |= column if literal > 0 else ~column
        satisfied &= hits
    return bool(satisfied.any())


def random_clause(rng, num_vars, width) -> list[int]:
    """*width* distinct variables of ``1..num_vars`` with random signs."""
    variables = rng.choice(num_vars, size=width, replace=False) + 1
    return [int(v) * (1 if rng.random() < 0.5 else -1) for v in variables]


class TestBasics:
    def test_empty_formula_is_sat(self):
        sat, model = SatSolver().solve()
        assert sat

    def test_unit_clauses(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-2])
        sat, model = solver.solve()
        assert sat
        assert model[1] is True
        assert model[2] is False

    def test_simple_unsat(self):
        solver = SatSolver()
        solver.add_clause([1])
        solver.add_clause([-1])
        sat, _ = solver.solve()
        assert not sat

    def test_requires_propagation(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        solver.add_clause([-1, 2])
        solver.add_clause([1, -2])
        sat, model = solver.solve()
        assert sat
        assert model[1] and model[2]

    def test_three_var_unsat(self):
        """All eight sign combinations of (x1, x2, x3): unsatisfiable."""
        solver = SatSolver()
        for mask in range(8):
            clause = [(1 if (mask >> i) & 1 else -1) * (i + 1) for i in range(3)]
            solver.add_clause(clause)
        sat, _ = solver.solve()
        assert not sat

    def test_tautological_clause_ignored(self):
        solver = SatSolver()
        solver.add_clause([1, -1])
        solver.add_clause([2])
        sat, model = solver.solve()
        assert sat and model[2]

    def test_bad_clauses_rejected(self):
        solver = SatSolver()
        with pytest.raises(ValueError, match="empty"):
            solver.add_clause([])
        with pytest.raises(ValueError, match="literal 0"):
            solver.add_clause([0])


class TestAssumptions:
    def test_assumptions_restrict(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        sat, model = solver.solve(assumptions=[-1])
        assert sat
        assert model[2] is True
        sat, _ = solver.solve(assumptions=[-1, -2])
        assert not sat


class TestAssumptionSoundness:
    """Clauses learned under assumptions must stay sound for later calls.

    The pre-fix solver enqueued assumptions at level 0; ``analyze``
    drops level-0 literals, so a clause learned under one assumption set
    silently conditioned on it and — persisted into ``self.clauses`` —
    made later calls with contradictory assumptions wrongly UNSAT.
    """

    def test_contradictory_assumption_sets(self):
        # Only constrains assignments where 1, 2, 3 are all true:
        # then 4 must be both true and false.
        solver = SatSolver()
        solver.add_clause([-1, -2, -3, 4])
        solver.add_clause([-1, -2, -3, -4])
        sat, _ = solver.solve(assumptions=[1])
        assert sat  # e.g. 1=T, 2=F; forces a conflict + learned clause first
        # Pre-fix the learned clause was [-2, -3] (assumption -1 dropped),
        # making this wrongly UNSAT.  2 ∧ 3 with 1 false is fine.
        sat, model = solver.solve(assumptions=[-1, 2, 3])
        assert sat
        assert model[1] is False and model[2] and model[3]

    def test_flipped_single_assumption(self):
        solver = SatSolver()
        solver.add_clause([-1, 2, 3])
        solver.add_clause([-1, 2, -3])
        solver.add_clause([-1, -2, 3])
        solver.add_clause([-1, -2, -3])
        sat, _ = solver.solve(assumptions=[1])
        assert not sat  # assuming 1 forces the 4-way contradiction
        sat, model = solver.solve(assumptions=[-1])
        assert sat
        assert model[1] is False
        sat, model = solver.solve()
        assert sat
        assert model[1] is False  # 1 is genuinely forced false

    def test_conflicting_assumptions_rejected(self):
        solver = SatSolver()
        solver.add_clause([1, 2])
        sat, _ = solver.solve(assumptions=[3, -3])
        assert not sat
        sat, _ = solver.solve(assumptions=[3])
        assert sat  # the contradiction above must not poison var 3


class TestConflictBudget:
    def test_budget_exhaustion_returns_unknown(self):
        solver = pigeonhole(5, 4)  # small but needs many conflicts
        sat, model = solver.solve(max_conflicts=1)
        assert sat is None
        assert model == {}
        # A fresh unbudgeted call still gets the right answer.
        sat, _ = solver.solve()
        assert sat is False

    def test_budget_keeps_solver_sound(self):
        solver = SatSolver()
        solver.add_clause([-1, -2, -3, 4])
        solver.add_clause([-1, -2, -3, -4])
        solver.solve(assumptions=[1], max_conflicts=1)
        sat, _ = solver.solve(assumptions=[-1, 2, 3])
        assert sat


class TestRestartsAndPhases:
    def test_luby_sequence(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]
        with pytest.raises(ValueError):
            luby(0)

    def test_restarts_fire_and_stay_correct(self):
        solver = pigeonhole(7, 6)
        sat, _ = solver.solve()
        assert sat is False
        # PHP(7 -> 6) needs well over RESTART_BASE conflicts, so at
        # least one Luby restart must have fired without changing the
        # verdict.
        assert solver.total_restarts >= 1
        assert solver.total_conflicts > 64

    def test_restart_preserves_max_conflicts_budget(self):
        solver = pigeonhole(7, 6)
        sat, model = solver.solve(max_conflicts=70)
        # The budget is a global conflict count, not per-restart: 70
        # conflicts exceed the first restart limit (64) but are nowhere
        # near enough for PHP(7 -> 6).
        assert sat is None
        assert model == {}
        sat, _ = solver.solve()
        assert sat is False

    def test_phase_saving_records_last_polarity(self):
        solver = SatSolver()
        solver.add_clause([-1, -2])
        sat, model = solver.solve(assumptions=[1])
        assert sat and model[1] is True and model[2] is False
        assert solver._saved_phase[2] is False
        # Unassumed, decisions re-use the saved phases.
        sat, model = solver.solve()
        assert sat
        assert model[2] is False


class TestPigeonhole:
    def test_php_3_into_2_unsat(self):
        """Three pigeons, two holes: classic small UNSAT instance."""
        sat, _ = pigeonhole(3, 2).solve()
        assert not sat


class TestRandomFormulas:
    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 8))
        num_clauses = int(rng.integers(1, 24))
        clauses = [
            random_clause(rng, num_vars, int(rng.integers(1, min(4, num_vars + 1))))
            for _ in range(num_clauses)
        ]
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        sat, model = solver.solve()
        assert sat == brute_force_sat(clauses, num_vars)
        if sat:
            assert check_model(clauses, model)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_incremental_assumption_sequences(self, seed):
        """One solver, many assumption sets: every answer must match
        brute force over (clauses + assumptions-as-units).

        Between calls the formula grows over fresh variables, the way
        the complete-DC oracle adds guards and selectors: one from
        :meth:`SatSolver.new_var`, one named first by ``add_clause``
        and one named only by an assumption.  State sized from
        ``num_vars`` at an earlier call must grow with them.
        """
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 7))
        num_clauses = int(rng.integers(2, 20))
        clauses = [
            random_clause(rng, num_vars, int(rng.integers(1, min(4, num_vars + 1))))
            for _ in range(num_clauses)
        ]
        solver = SatSolver()
        for clause in clauses:
            solver.add_clause(clause)
        # The clauses need not name every variable; declare the rest so
        # the solver's count matches ours before fresh ones are added.
        while solver.num_vars < num_vars:
            solver.new_var()
        for _ in range(int(rng.integers(2, 6))):
            width = int(rng.integers(0, min(num_vars, 6) + 1))
            assumptions = random_clause(rng, num_vars, width)
            kind = int(rng.integers(0, 4))
            if kind == 0:  # a guard: g -> AND(literals)
                guard = solver.new_var()
                for literal in random_clause(rng, num_vars, int(rng.integers(1, 3))):
                    clauses.append([-guard, literal])
                    solver.add_clause(clauses[-1])
                if rng.random() < 0.5:
                    assumptions.append(guard)
            elif kind == 1:  # a selector over existing variables
                selector = solver.new_var()
                clauses.append([-selector, *random_clause(rng, num_vars, 2)])
                solver.add_clause(clauses[-1])
                assumptions.append(selector)
            elif kind == 2:  # a variable first named by add_clause
                clauses.append([num_vars + 1, *random_clause(rng, num_vars, 1)])
                solver.add_clause(clauses[-1])
            else:  # a variable named only by an assumption
                assumptions.append(-(num_vars + 1))
            num_vars += 1
            sat, model = solver.solve(assumptions=assumptions)
            extended = clauses + [[l] for l in assumptions]
            assert sat == brute_force_sat(extended, num_vars), (
                clauses, assumptions,
            )
            assert solver.num_vars == num_vars
            if sat:
                assert sorted(model) == list(range(1, num_vars + 1))
                assert check_model(extended, model)


def search_stream():
    """Yield ``(solver, verdict, model)`` for every solve of a fixed stream.

    PHP(7 -> 6) first under a 70-conflict budget (Unknown), then to
    completion (UNSAT after several Luby restarts).  Then one incremental
    solver over a seeded random 3-CNF, solved under random assumption
    sets; between calls it gains guard and selector clauses over freshly
    allocated variables, the pattern of the complete-DC oracle.
    """
    solver = pigeonhole(7, 6)
    for budget in (70, None):
        sat, model = solver.solve(max_conflicts=budget)
        yield solver, sat, model
    rng = np.random.default_rng(2024)
    num_vars = 60
    solver = SatSolver()
    for _ in range(200):
        solver.add_clause(random_clause(rng, num_vars, 3))
    for _ in range(12):
        width = int(rng.integers(0, 6))
        assumptions = random_clause(rng, solver.num_vars, width)
        sat, model = solver.solve(assumptions)
        yield solver, sat, model
        guards = []
        for _ in range(3):
            guard = solver.new_var()
            for literal in random_clause(rng, num_vars, 3):
                solver.add_clause([-guard, literal])
            guards.append(guard)
        selector = solver.new_var()
        solver.add_clause([-selector, *guards])
        sat, model = solver.solve([*assumptions[:2], selector])
        yield solver, sat, model


SEARCH_STREAM_SHA256 = (
    "bfcd1202d6d91ac76a91615c2ea2192727110b8251aa02288b1dbba5d0cc4152"
)
"""Digest of :func:`search_stream`'s outcomes, recorded on the dict-based
solver that the list-indexed one replaced."""


class TestSearchGolden:
    """The search itself is part of the solver's contract.

    The complete-DC goldens pin the stage's refuting vectors, which are
    the solver's models; a change to propagation order, watch swaps,
    learned clauses, VSIDS ties, restarts or phase saving moves them.
    This digest fails first and names the solver as the cause.
    """

    def test_stream_digest(self):
        digest = hashlib.sha256()
        solves = 0
        for solver, sat, model in search_stream():
            solves += 1
            bits = "".join("1" if model[v] else "0" for v in sorted(model))
            digest.update(repr((
                sat, len(model), bits, solver.total_conflicts,
                solver.total_restarts, len(solver.clauses),
            )).encode())
        assert solves == 26
        assert digest.hexdigest() == SEARCH_STREAM_SHA256

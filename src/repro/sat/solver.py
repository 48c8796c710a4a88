"""A compact CNF SAT solver (DPLL with two-watched-literal propagation).

Reference [16] of the paper computes network flexibilities with
simulation + satisfiability; this module supplies the satisfiability half
of that substrate: a dependency-free solver adequate for the miter-style
equivalence and ODC queries that arise at this project's scale.

Literal convention (DIMACS): variables are positive integers; a negative
integer is the complemented literal.  Clauses are lists of literals.

The solver implements:

* two-watched-literal unit propagation,
* conflict-driven backtracking with simple clause learning
  (first-unique-implication-point resolution),
* VSIDS-lite decision ordering (bump-on-conflict activity),
* Luby-sequence restarts with phase saving (decisions re-use the last
  polarity a variable was assigned, so a restart re-descends into the
  same part of the search space at almost no cost),
* sound incremental solving under assumptions, with an optional
  per-call conflict budget.

Incremental soundness
---------------------

Learned clauses persist in ``self.clauses`` across :meth:`SatSolver.solve`
calls, so the derivation of every learned clause must only use the
*permanent* clause database — never the call-local assumptions.  The
solver guarantees this the MiniSat way: each assumption literal opens its
**own decision level** (level ``i`` for assumption ``i``), so 1-UIP
analysis keeps assumption literals inside the learned clause (only true
level-0 literals — unit clauses, themselves permanent — are dropped).  A
clause learned under ``solve(assumptions=[a])`` therefore reads
``(not a) or ...`` and stays valid for a later call assuming ``not a``.

An earlier revision enqueued assumptions at level 0, which made
``analyze`` silently drop them from learned clauses; a clause learned
under one assumption set could then make a later call with contradictory
assumptions wrongly UNSAT (see ``tests/sat/test_solver.py::
TestAssumptionSoundness`` for the minimal reproduction).

State layout and search order
-----------------------------

Per-variable and per-literal state lives in flat lists, the way MiniSat
keeps it in arrays.  Truth values are one list indexed by literal: with
``n`` variables it holds ``2n + 1`` entries, ``vals[v]`` is literal ``v``
and ``vals[-v]`` literal ``-v`` (Python indexes a negative position from
the end), each ``True``, ``False`` or ``None`` for unassigned.  Watch
lists use the same literal indexing and hold the clause lists
themselves.  Decision level, reason clause, activity and saved phase are
lists indexed by variable, and the trail is a list of literals.

The search order is part of the solver's contract: the complete-DC
stage turns each model into a refuting simulation vector, so its
goldens pin the models, and ``tests/sat/test_solver.py::TestSearchGolden``
pins a digest of every outcome of a fixed solve stream.  A faster solver
must keep the watch-list order and watch swaps, the learned clauses and
their literal order, the decision order (highest activity, then lowest
variable), the Luby restarts and phase saving, and hence every model.
"""

from __future__ import annotations

from heapq import heappop, heappush

__all__ = ["SatSolver", "Satisfiable", "Unsatisfiable", "Unknown", "luby"]

Satisfiable = True
Unsatisfiable = False
Unknown = None
"""Returned by :meth:`SatSolver.solve` when ``max_conflicts`` ran out."""

RESTART_BASE = 64
"""Conflicts allowed before the first restart; later restarts scale this
by the Luby sequence (1, 1, 2, 1, 1, 2, 4, ...)."""


def luby(index: int) -> int:
    """The ``index``-th term (1-based) of the Luby sequence 1,1,2,1,1,2,4,...

    Term ``2^k - 1`` is ``2^(k-1)``; any other index recurses into the
    previous full subsequence.
    """
    if index < 1:
        raise ValueError("luby() is 1-based")
    while (index + 1) & index:  # until index == 2^k - 1
        # Largest m with 2^m - 1 < index; drop the leading subsequence.
        m = (index + 1).bit_length() - 1
        index -= (1 << m) - 1
    return (index + 1) >> 1


class SatSolver:
    """An incremental CNF solver."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self._units: list[int] = []
        # The clauses watching each literal, indexed by literal (see the
        # module docstring); room for ``_watch_capacity`` variables.
        self._watches: list[list[list[int]]] = [[]]
        self._watch_capacity = 0
        self._activity: list[float] = [0.0]  # indexed by variable
        self._saved_phase: list[bool] = [True]  # indexed by variable
        # Lazy max-heap over (-activity, var) for decision picking; stale
        # entries are skipped on pop.  Persistent across solve() calls so
        # incremental use stays O(new vars), not O(all vars), per call.
        self._heap: list[tuple[float, int]] = []
        self._heap_high_water = 0
        self.total_conflicts = 0
        self.total_restarts = 0
        self.total_solves = 0

    # ---------------------------------------------------------------- input

    def new_var(self) -> int:
        """Allocate and return a fresh variable."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals) -> None:
        """Add a clause (a non-empty iterable of non-zero ints).

        Raises:
            ValueError: on empty clauses or zero literals.
        """
        clause = list(dict.fromkeys(map(int, literals)))
        if not clause:
            raise ValueError("empty clause (formula is trivially UNSAT)")
        present = set(clause)
        if 0 in present:
            raise ValueError("literal 0 is not allowed")
        top = max(map(abs, clause))
        if top > self.num_vars:
            self.num_vars = top
        if not present.isdisjoint([-l for l in clause]):
            return  # tautological clause
        if len(clause) == 1:
            self._units.append(clause[0])
            return
        if top > self._watch_capacity:
            self._reserve_watches(top)
        self.clauses.append(clause)
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)

    def _reserve_watches(self, variables: int) -> None:
        """Grow the watch lists to hold at least *variables* variables.

        The capacity at least doubles, so a stream of fresh variables
        costs amortised O(1) each.  New slots go in the middle: positive
        literals keep their indices and negative ones, indexed from the
        end, keep theirs relative to it.
        """
        old = self._watch_capacity
        new = max(variables, 2 * old)
        self._watches[old + 1:old + 1] = [[] for _ in range(2 * (new - old))]
        self._watch_capacity = new

    # --------------------------------------------------------------- solving

    def solve(
        self, assumptions=(), *, max_conflicts: int | None = None
    ) -> tuple[bool | None, dict[int, bool]]:
        """Decide satisfiability.

        Args:
            assumptions: literals forced true for this call.  Each opens
                its own decision level, so clauses learned under
                assumptions remain sound for later calls (see the module
                docstring).
            max_conflicts: optional conflict budget; when exhausted the
                call gives up and returns :data:`Unknown` (``None``) —
                any clauses learned so far are kept and remain sound.

        Returns:
            ``(True, model)`` with a full assignment, ``(False, {})``
            when unsatisfiable under the assumptions, or ``(None, {})``
            when the conflict budget ran out.
        """
        assumption_literals = [int(l) for l in assumptions]
        if any(l == 0 for l in assumption_literals):
            raise ValueError("literal 0 is not allowed as an assumption")
        for literal in assumption_literals:
            self.num_vars = max(self.num_vars, abs(literal))
        num_vars = self.num_vars
        if num_vars > self._watch_capacity:
            self._reserve_watches(num_vars)
        activity = self._activity
        activity.extend([0.0] * (num_vars + 1 - len(activity)))
        saved_phase = self._saved_phase
        saved_phase.extend([True] * (num_vars + 1 - len(saved_phase)))
        clauses = self.clauses
        watches = self._watches
        heap = self._heap

        vals: list[bool | None] = [None] * (2 * num_vars + 1)  # by literal
        level = [0] * (num_vars + 1)  # by variable
        # The clause that implied each variable (None: decision or unit).
        reason: list[list[int] | None] = [None] * (num_vars + 1)
        trail: list[int] = []  # assigned literals, in order
        decisions: list[int] = []  # trail indices at each decision level
        conflicts = 0
        conflicts_since_restart = 0
        restart_number = 0
        restart_limit = RESTART_BASE * luby(1)
        prop_head = 0  # trail position up to which propagation is done
        consumed: set[int] = set()  # vars whose heap entry was popped
        self.total_solves += 1

        # Seed heap entries for variables allocated since the last call.
        while self._heap_high_water < num_vars:
            self._heap_high_water += 1
            variable = self._heap_high_water
            heappush(heap, (-activity[variable], variable))

        def enqueue(literal: int, cause: list[int] | None) -> bool:
            """Assign *literal* true unless it already has a value;
            returns its (new) truth value."""
            current = vals[literal]
            if current is not None:
                return current
            vals[literal] = True
            vals[-literal] = False
            variable = abs(literal)
            saved_phase[variable] = literal > 0
            level[variable] = len(decisions)
            reason[variable] = cause
            trail.append(literal)
            return True

        def propagate() -> list[int] | None:
            """Run unit propagation; return a conflicting clause.

            Resumes from where the previous call stopped (``prop_head``);
            :func:`backtrack` rewinds the head with the trail, so work is
            linear in enqueued literals rather than quadratic.  The
            assignment of :func:`enqueue` is inlined.
            """
            nonlocal prop_head
            current_level = len(decisions)
            head = prop_head
            while head < len(trail):
                falsified = -trail[head]
                head += 1
                watchers = watches[falsified]
                index = 0
                end = len(watchers)  # only this loop shrinks ``watchers``
                while index < end:
                    clause = watchers[index]
                    # Ensure the falsified literal sits at position 1.
                    other = clause[0]
                    if other == falsified:
                        other = clause[1]
                        clause[0] = other
                        clause[1] = falsified
                    other_value = vals[other]
                    if other_value is True:
                        index += 1
                        continue
                    # Look for a replacement watch.
                    for pos in range(2, len(clause)):
                        candidate = clause[pos]
                        if vals[candidate] is not False:
                            clause[1] = candidate
                            clause[pos] = falsified
                            watches[candidate].append(clause)
                            end -= 1
                            watchers[index] = watchers[end]
                            watchers.pop()
                            break
                    else:
                        if other_value is False:
                            prop_head = head
                            return clause  # conflict
                        vals[other] = True
                        vals[-other] = False
                        variable = other if other > 0 else -other
                        saved_phase[variable] = other > 0
                        level[variable] = current_level
                        reason[variable] = clause
                        trail.append(other)
                        index += 1
            prop_head = head
            return None

        def analyze(clause: list[int]) -> tuple[list[int], int]:
            """1-UIP conflict analysis -> (learned clause, backjump level).

            Level-0 literals are dropped: they are implied by permanent
            unit clauses, so omitting them keeps the learned clause both
            correct and strictly stronger.  Assumption literals live at
            levels >= 1 and are therefore always kept.
            """
            current_level = len(decisions)
            seen: set[int] = set()
            learned: list[int] = []
            counter = 0
            cursor = len(trail) - 1
            while True:
                for literal in clause:
                    variable = abs(literal)
                    if variable in seen or vals[literal] is not False:
                        continue
                    seen.add(variable)
                    bumped = activity[variable] + 1.0
                    activity[variable] = bumped
                    heappush(heap, (-bumped, variable))
                    if level[variable] >= current_level:
                        counter += 1
                    elif level[variable] > 0:
                        learned.append(literal)
                while cursor >= 0:
                    if abs(trail[cursor]) in seen:
                        break
                    cursor -= 1
                trail_literal = trail[cursor]
                cursor -= 1
                counter -= 1
                if counter == 0:
                    break
                clause = reason[abs(trail_literal)] or ()
            learned.append(-trail_literal)
            if len(learned) == 1:
                return learned, 0
            return learned, max(level[abs(l)] for l in learned[:-1])

        def backtrack(target: int) -> None:
            """Undo every decision level above *target*."""
            nonlocal prop_head
            if len(decisions) <= target:
                return
            mark = decisions[target]
            del decisions[target:]
            for literal in trail[mark:]:
                vals[literal] = None
                vals[-literal] = None
                variable = abs(literal)
                if variable in consumed:
                    # Freshly unassigned: restore its decision-heap entry
                    # at the current activity.
                    consumed.discard(variable)
                    heappush(heap, (-activity[variable], variable))
            del trail[mark:]
            prop_head = min(prop_head, mark)

        def decide() -> int:
            """Pop the highest-activity unassigned variable off the heap."""
            while heap:
                _, variable = heappop(heap)
                consumed.add(variable)
                if vals[variable] is None:
                    return variable
            # Defensive: the heap invariant should make this unreachable.
            for variable in range(1, num_vars + 1):
                if vals[variable] is None:
                    return variable
            raise AssertionError("decide() with a complete assignment")

        # Level 0 holds exactly the permanent unit clauses.
        for literal in self._units:
            if not enqueue(literal, None):
                return Unsatisfiable, {}
        if propagate() is not None:
            return Unsatisfiable, {}

        try:
            while True:
                if len(decisions) < len(assumption_literals):
                    # Establish the next assumption on its own level.
                    literal = assumption_literals[len(decisions)]
                    current = vals[literal]
                    if current is False:
                        return Unsatisfiable, {}
                    decisions.append(len(trail))
                    if current is None:
                        enqueue(literal, None)
                elif len(trail) >= num_vars:
                    return Satisfiable, dict(
                        zip(range(1, num_vars + 1), vals[1:num_vars + 1])
                    )
                else:
                    # Decide: highest-activity unassigned variable, set to
                    # its saved phase (last polarity held; default true).
                    decision = decide()
                    decisions.append(len(trail))
                    if not saved_phase[decision]:
                        decision = -decision
                    enqueue(decision, None)
                restart = False
                while True:
                    conflict = propagate()
                    if conflict is None:
                        break
                    if not decisions:
                        return Unsatisfiable, {}
                    conflicts += 1
                    conflicts_since_restart += 1
                    self.total_conflicts += 1
                    if max_conflicts is not None and conflicts > max_conflicts:
                        return Unknown, {}
                    learned, back_level = analyze(conflict)
                    if conflicts_since_restart >= restart_limit:
                        # Luby restart: keep the learned clause, abandon
                        # the current descent.  Phase saving makes the
                        # re-descent cheap, and ``conflicts`` keeps
                        # counting globally so ``max_conflicts`` semantics
                        # are unchanged.
                        restart_number += 1
                        conflicts_since_restart = 0
                        restart_limit = RESTART_BASE * luby(restart_number + 1)
                        self.total_restarts += 1
                        restart = True
                    backtrack(0 if restart else back_level)
                    if len(learned) == 1:
                        # A learned unit is derived from permanent clauses
                        # only, so it may (and should) persist like any
                        # other unit clause.
                        self._units.append(learned[0])
                        if not enqueue(learned[0], None):
                            return Unsatisfiable, {}
                    else:
                        # Watch the asserting (UIP) literal, moved to the
                        # front, and the first literal analysis kept.
                        asserting = learned.pop()
                        learned.insert(0, asserting)
                        clauses.append(learned)
                        watches[asserting].append(learned)
                        watches[learned[1]].append(learned)
                        if not restart:
                            # After a restart the clause need not be
                            # asserting at level 0, so it must not force
                            # its literal.
                            enqueue(asserting, learned)
                    if restart:
                        break
        finally:
            # Restore a heap entry for every variable whose entry was
            # consumed this call, so the next call starts complete.
            for variable in consumed:
                heappush(heap, (-activity[variable], variable))

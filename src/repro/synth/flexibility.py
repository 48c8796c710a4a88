"""Simulation + SAT flexibility extraction (the paper's ref. [16] approach).

:mod:`repro.synth.odc` computes node flexibilities exhaustively over the
primary-input space — exact, but limited to ~20 inputs.  This module
implements the scalable alternative the paper cites (Mishchenko et al.,
"Using simulation and satisfiability to compute flexibilities in Boolean
networks"; Mishchenko & Brayton, "SAT-based complete don't-care
computation for network optimization"): random simulation proposes
don't-care candidates, and SAT queries confirm them exactly:

* a fanin pattern never observed under simulation is an **SDC candidate**;
  a SAT query for "some PI vector produces this pattern" refutes or
  confirms it;
* a pattern whose observed vectors never propagated a node flip is an
  **ODC candidate**; a miter query ("some PI vector produces the pattern
  *and* flipping the node changes a PO") decides it exactly;
* a pattern for which simulation already shows an observable flip is a
  confirmed *care* with no query at all — simulation refutes the
  candidate before SAT sees it.

The engine behind :class:`CompleteFlexibilityOracle` is batched and
incremental:

**Query batching.**  Unconfirmed candidates are grouped and a fresh
one-hot selector (``s -> OR(cube guards)``) asks the solver whether *any*
candidate in the batch is reachable (or observable) with a single
``solve([s])``.  UNSAT confirms the whole batch at once; a SAT model
names exactly one refuted candidate (the fanin values in the model),
which is removed before the shrunken batch is re-queried.  Stale
selectors are simply never assumed again.

**Counterexample recycling.**  Every refuting model is a concrete PI
vector; it is recorded and — at the next :meth:`flush_recycled` — packed
into the shared simulation, so sibling candidates across *all* remaining
nodes are pruned by simulation instead of reaching the solver.

**Encoding and cone caching.**  The network CNF persists across
rewrites: :meth:`notify_rewrite` bumps a version on every signal in the
rewritten node's fanout cone and re-encodes only those covers under the
new versioned names, leaving untouched logic (and all learned clauses)
in place.  Per-node flip-cone miters are memoized keyed by their
dependency fingerprint — the cone signals plus its side inputs — and
evicted only when a rewrite dirties a dependency.

**Schedule-independent results.**  Batching, recycling and caching
change *how fast* answers arrive, never *which* answers: pattern
statuses are exact semantic facts, and the per-node query budget is
charged against the **base** pattern set only — one query per pattern
the base patterns do not prove a care, plus one more per
base-unobserved pattern found reachable.  A node therefore falls back
to the window-limited extractor on exactly the same inputs whatever
counterexamples were recycled or however the nodes were scheduled —
which is what keeps serial and parallel runs of
:func:`reassign_complete_dcs` bit-identical.

:func:`reassign_complete_dcs` partitions the candidate nodes into
*independent waves* (:func:`plan_node_groups`: no member's rewrite can
change another member's flexibility), confirms a wave's flexibilities
against the wave-start network state — serially, or fanned out across
:mod:`repro.perf.pool` workers — and applies the rewrites sequentially
in topological order, so the schedule observed by every node is the
same in both modes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..core.assignment import Assignment
from ..core.cfactor import DEFAULT_THRESHOLD, cfactor_assignment
from ..core.ranking import complete_assignment, ranking_assignment
from ..core.spec import FunctionSpec
from ..core.truthtable import DC, OFF, ON
from ..espresso.cube import Cover
from ..espresso.minimize import espresso
from ..obs import metrics as obs_metrics
from ..obs import span
from ..sat.encode import CnfBuilder, networks_equivalent
from ..sim import packed as pk
from ..sim.incremental import IncrementalNetworkSim
from .network import LogicNetwork
from .odc import MAX_EXHAUSTIVE_FANINS, internal_error_rate, node_flexibility

__all__ = [
    "node_flexibility_sat",
    "CompleteFlexibilityOracle",
    "CompleteDcReport",
    "plan_node_groups",
    "reassign_complete_dcs",
]

_FULL_SIM_MAX_PIS = 20
"""PI count up to which the pass keeps a full-space exhaustive simulator
for the per-rewrite output self-check and the window-limited baseline;
beyond it only the final miter check and the SAT path remain."""

BATCH_SIZE = 16
"""Candidates per one-hot selector batch.  Large enough that an UNSAT
answer confirms a pile of candidates in one solve, small enough that the
final complete-search UNSAT proof per batch stays shallow (the measured
sweet spot on the benchmark circuits; 32 starts losing to the deeper
selector refutations)."""

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_GC_FACTOR = 1.3
"""Compaction threshold: the persistent encoding is rebuilt from scratch
once its clause count exceeds this multiple of a fresh encoding's (see
:meth:`CompleteFlexibilityOracle._maybe_compact`)."""


class _BudgetExhausted(Exception):
    """Internal: a node hit its query budget or an inconclusive solve;
    the caller falls back to the window extractor."""


class CompleteFlexibilityOracle:
    """Per-node complete flexibility via one shared incremental encoding.

    One versioned CNF copy of the network is built lazily and shared by
    every node's queries; each queried node adds a private flipped cone
    (``F<i>_`` prefix) plus a PO-difference indicator to the same solver,
    so learned clauses accumulate across nodes *and across rewrites*.  A
    random packed simulation (also shared) pre-classifies patterns so SAT
    only sees genuine candidates.

    After a node's cover is rewritten, call :meth:`notify_rewrite` — the
    dirtied cone is re-encoded under fresh signal versions and the
    simulation refreshed incrementally.

    Attributes:
        network: the analysed network (rewrites allowed between queries
            when announced via :meth:`notify_rewrite`).
        query_budget: max SAT queries charged per node (``None`` =
            unlimited; see the module docstring for the charge);
            exhausting it makes :meth:`node_flexibility` return ``None``.
        conflict_budget: per-solve conflict cap (``None`` = unlimited);
            an inconclusive solve also returns ``None``.
    """

    def __init__(
        self,
        network: LogicNetwork,
        *,
        simulation_vectors: int = 256,
        rng: np.random.Generator | None = None,
        query_budget: int | None = None,
        conflict_budget: int | None = None,
        vectors: np.ndarray | None = None,
        base_vectors: int | None = None,
    ) -> None:
        self.network = network
        self.query_budget = query_budget
        self.conflict_budget = conflict_budget
        if vectors is None:
            rng = rng or np.random.default_rng(0)
            vectors = (
                rng.random((simulation_vectors, len(network.primary_inputs)))
                < 0.5
            )
            base_vectors = simulation_vectors
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=bool))
        self._vectors = vectors
        self.base_vectors = (
            vectors.shape[0] if base_vectors is None else base_vectors
        )
        self._vector_keys = {row.tobytes() for row in vectors}
        self._pending: list[np.ndarray] = []
        self.sim = IncrementalNetworkSim(
            network, pk.pack_matrix(vectors), vectors.shape[0]
        )
        self._base_mask = self._make_base_mask(vectors.shape[0])
        self._builder: CnfBuilder | None = None
        self._version: dict[str, int] = {}
        self._any_diff: dict[str, int] = {}
        self._flip_deps: dict[str, frozenset[str]] = {}
        self._flip_count = 0
        self._restarts_seen = 0
        self._fresh_clauses = 0

    # ---------------------------------------------------------------- vectors

    @property
    def num_vectors(self) -> int:
        """Installed simulation vectors (base + flushed counterexamples)."""
        return self._vectors.shape[0]

    @property
    def vectors(self) -> np.ndarray:
        """The installed PI pattern matrix (bool, vectors x inputs)."""
        return self._vectors

    def _make_base_mask(self, total: int) -> np.ndarray:
        """Word mask selecting the first ``base_vectors`` vector bits."""
        mask = np.zeros(pk.num_words(total), dtype=np.uint64)
        full, rem = divmod(self.base_vectors, 64)
        mask[:full] = _ALL_ONES
        if rem and full < mask.shape[0]:
            mask[full] = np.uint64((1 << rem) - 1)
        return mask

    def record_counterexamples(self, rows) -> int:
        """Queue refuting PI vectors for the next :meth:`flush_recycled`.

        Deduplicated against installed and already-pending vectors; used
        both internally (every refuting model) and by the parallel driver
        to merge counterexamples discovered in workers.
        """
        added = 0
        for row in rows:
            row = np.ascontiguousarray(np.asarray(row, dtype=bool))
            key = row.tobytes()
            if key in self._vector_keys:
                continue
            self._vector_keys.add(key)
            self._pending.append(row)
            added += 1
        if added:
            obs_metrics.counter("sat.cex_recycled").inc(added)
        return added

    def drain_counterexamples(self) -> list[np.ndarray]:
        """Remove and return the pending counterexample rows (the worker
        side of parallel recycling; keys stay so re-adds dedupe)."""
        pending, self._pending = self._pending, []
        return pending

    def flush_recycled(self) -> int:
        """Install pending counterexamples into the shared simulation.

        Deliberately *not* automatic per refutation: the driver flushes at
        group boundaries so serial and parallel schedules present every
        node with the same simulation (results are invariant to the extra
        patterns either way — see the module docstring — but keeping the
        schedules aligned keeps performance comparable too).
        """
        if not self._pending:
            return 0
        added = len(self._pending)
        self._vectors = np.ascontiguousarray(
            np.vstack([self._vectors, np.array(self._pending, dtype=bool)])
        )
        self._pending = []
        self.sim = IncrementalNetworkSim(
            self.network, pk.pack_matrix(self._vectors), self._vectors.shape[0]
        )
        self._base_mask = self._make_base_mask(self._vectors.shape[0])
        obs_metrics.counter("sat.cex_installed").inc(added)
        return added

    # ------------------------------------------------------------- lifecycle

    def notify_rewrite(self, node_name: str) -> None:
        """Announce that *node_name*'s cover changed.

        The rewritten fanout cone is re-encoded under fresh signal
        versions — untouched logic and all learned clauses persist — and
        only flip-cone miters whose dependency fingerprint includes a
        dirtied signal are evicted.  The node's simulation cone is
        refreshed in place.
        """
        self.sim.recompute(node_name)
        if self._builder is None:
            return
        dirty = self.network.fanout_cone(node_name)
        dirty_set = set(dirty)
        for signal in dirty:
            self._version[signal] = self._version.get(signal, 0) + 1
        builder = self._builder
        for signal in dirty:  # already topologically ordered
            node = self.network.nodes[signal]
            builder.encode_sop(
                self._signal_name(signal),
                [self._signal_name(f) for f in node.fanins],
                node.cover,
            )
        obs_metrics.counter("sat.reencoded_nodes").inc(len(dirty))
        for cached in list(self._any_diff):
            if self._flip_deps[cached] & dirty_set:
                del self._any_diff[cached]
                del self._flip_deps[cached]
                obs_metrics.counter("sat.cone_cache_evictions").inc()

    # -------------------------------------------------------------- encoding

    def _signal_name(self, signal: str) -> str:
        if signal in self.network.primary_inputs:
            return signal
        version = self._version.get(signal, 0)
        return f"N_{signal}" if version == 0 else f"N_{signal}@{version}"

    def _ensure_builder(self) -> CnfBuilder:
        if self._builder is None:
            builder = CnfBuilder()
            self._version.clear()
            for name in self.network.topological_order():
                node = self.network.nodes[name]
                builder.encode_sop(
                    self._signal_name(name),
                    [self._signal_name(f) for f in node.fanins],
                    node.cover,
                )
            self._builder = builder
            self._fresh_clauses = len(builder.solver.clauses)
            self._restarts_seen = 0
        return self._builder

    def _maybe_compact(self) -> None:
        """Rebuild the encoding once accumulated garbage dominates it.

        The persistent CNF trades clause garbage (stale cone versions,
        retired flip copies, spent batch guards) for learned-clause and
        encoding reuse — but every satisfying assignment must still
        assign the garbage variables, so an unbounded pile would make
        each solve slower than the reuse saves.  When the clause count
        passes ``_GC_FACTOR`` times a fresh encoding's, drop everything
        and let the next query re-encode from scratch.  Only called
        between nodes: mid-node state (fanin variables, guards, miters)
        always refers to one builder generation.
        """
        if self._builder is None:
            return
        if len(self._builder.solver.clauses) > _GC_FACTOR * max(
            self._fresh_clauses, 1
        ):
            self._builder = None
            self._any_diff.clear()
            self._flip_deps.clear()
            obs_metrics.counter("sat.encoding_compactions").inc()

    def _ensure_flip(self, node_name: str) -> int:
        """The node's any-PO-differs miter variable, memoized.

        The cache key is the dependency fingerprint of the flip cone —
        the cone signals plus every side input its covers read — kept
        implicitly: :meth:`notify_rewrite` evicts entries whose
        fingerprint gained a dirtied signal, so a present entry is always
        current.
        """
        cached = self._any_diff.get(node_name)
        if cached is not None:
            obs_metrics.counter("sat.cone_cache_hits").inc()
            return cached
        obs_metrics.counter("sat.cone_cache_misses").inc()
        builder = self._ensure_builder()
        cone = self.network.fanout_cone(node_name)  # includes node_name
        cone_set = set(cone)
        self._flip_count += 1
        prefix = f"F{self._flip_count}_"

        def flip_name(signal: str) -> str:
            if signal in cone_set:
                return prefix + signal
            return self._signal_name(signal)

        original = builder.var(self._signal_name(node_name))
        flipped = builder.var(prefix + node_name)
        builder.add_clause([original, flipped])
        builder.add_clause([-original, -flipped])
        deps = set(cone_set)
        for name in cone:
            if name == node_name:
                continue
            node = self.network.nodes[name]
            builder.encode_sop(
                flip_name(name), [flip_name(f) for f in node.fanins], node.cover
            )
            deps.update(
                f
                for f in node.fanins
                if f not in self.network.primary_inputs
            )
        difference_vars = []
        for signal in self.network.outputs.values():
            if signal not in cone_set:
                continue  # this PO cannot change; skip
            left = builder.var(self._signal_name(signal))
            right = builder.var(prefix + signal)
            diff = builder.solver.new_var()
            builder.encode_xor(diff, left, right)
            difference_vars.append(diff)
        any_diff = builder.solver.new_var()
        builder.encode_or(any_diff, difference_vars)
        self._any_diff[node_name] = any_diff
        self._flip_deps[node_name] = frozenset(deps)
        return any_diff

    # --------------------------------------------------------------- queries

    def _solve(self, assumptions) -> tuple[bool | None, dict[int, bool]]:
        solver = self._ensure_builder().solver
        obs_metrics.counter("sat.queries").inc()
        started = perf_counter()
        sat, model = solver.solve(
            assumptions, max_conflicts=self.conflict_budget
        )
        obs_metrics.counter("sat.solve_seconds").inc(perf_counter() - started)
        if solver.total_restarts != self._restarts_seen:
            obs_metrics.counter("sat.restarts").inc(
                solver.total_restarts - self._restarts_seen
            )
            self._restarts_seen = solver.total_restarts
        return sat, model

    def _model_row(self, builder: CnfBuilder, model: dict[int, bool]):
        """The refuting model's PI vector (unconstrained PIs read false)."""
        row = np.zeros(len(self.network.primary_inputs), dtype=bool)
        for position, pi in enumerate(self.network.primary_inputs):
            variable = builder.variable_of.get(pi)
            if variable is not None:
                row[position] = model.get(variable, False)
        return row

    def _cube_literals(self, fanin_vars, pattern: int) -> list[int]:
        return [
            var if (pattern >> j) & 1 else -var
            for j, var in enumerate(fanin_vars)
        ]

    def _resolve_candidates(
        self,
        patterns,
        fanin_vars,
        extra,
        guards: dict[int, int],
        charge_refutation=None,
    ) -> set[int]:
        """Decide every candidate cube: returns the refuted (SAT) ones.

        Candidates go to the solver :data:`BATCH_SIZE` at a time behind
        one selector.  UNSAT confirms the whole batch; on SAT the model's
        fanin values name exactly one refuted candidate, which is removed
        before the batch is queried again.  *extra* literals are assumed
        on every query (the observability ``any_diff``).
        *charge_refutation* is invoked per refutation for the query
        budget and may raise :class:`_BudgetExhausted`; an inconclusive
        solve raises it too.
        """
        builder = self._ensure_builder()
        refuted: set[int] = set()
        pending_all = list(patterns)
        for start in range(0, len(pending_all), BATCH_SIZE):
            pending = pending_all[start:start + BATCH_SIZE]
            while pending:
                for pattern in pending:
                    if pattern not in guards:
                        guards[pattern] = builder.encode_cube_guard(
                            self._cube_literals(fanin_vars, pattern)
                        )
                selector = builder.encode_selector(
                    [guards[pattern] for pattern in pending]
                )
                sat, model = self._solve(list(extra) + [selector])
                if sat is None:
                    raise _BudgetExhausted
                if not sat:
                    break  # the whole batch is confirmed at once
                pattern = 0
                for j, var in enumerate(fanin_vars):
                    if model.get(var, False):
                        pattern |= 1 << j
                if pattern not in pending:
                    raise AssertionError(
                        "batched model refutes no pending candidate"
                    )
                pending.remove(pattern)
                refuted.add(pattern)
                obs_metrics.counter("sat.batch_refutations").inc()
                self.record_counterexamples([self._model_row(builder, model)])
                if charge_refutation is not None:
                    charge_refutation(pattern)
        return refuted

    def node_flexibility(self, node_name: str) -> FunctionSpec | None:
        """The node's complete local flexibility, or ``None`` on budget
        exhaustion (callers fall back to a window-limited extraction).

        Raises:
            ValueError: for nodes wider than
                :data:`~repro.synth.odc.MAX_EXHAUSTIVE_FANINS`.
        """
        self._maybe_compact()
        node = self.network.nodes[node_name]
        k = len(node.fanins)
        if k > MAX_EXHAUSTIVE_FANINS:
            raise ValueError(
                f"node {node_name!r} has {k} fanins; local flexibility "
                f"enumerates 2^k patterns and is capped at "
                f"{MAX_EXHAUSTIVE_FANINS} fanins"
            )
        size = 1 << k

        # --- Simulation phase: observed patterns and sim-proven cares.
        # The *_any views include recycled counterexamples (they prune
        # solver work); the *_base views see only the base pattern set
        # and drive the query-budget charge.
        masks = pk.pattern_masks(
            [self.sim.values[fanin] for fanin in node.fanins],
            self.num_vectors,
        )
        flip_diff = self.sim.flip_difference(node_name)
        care_masks = masks & flip_diff
        observed_any = np.any(masks != 0, axis=1)
        care_any = np.any(care_masks != 0, axis=1)
        observed_base = np.any(masks & self._base_mask, axis=1)
        care_base = np.any(care_masks & self._base_mask, axis=1)

        # Query-budget charge: one query per pattern the base patterns do
        # not prove a care (reachability if base-unobserved, else
        # observability), plus one more per base-unobserved pattern found
        # reachable.  Reachability is known up front when a recycled
        # vector witnesses it; SDC refutations below add the rest as they
        # are discovered.
        budget = self.query_budget
        charge = int(np.count_nonzero(~care_base))
        charge += int(np.count_nonzero(~observed_base & observed_any))

        def fallback() -> None:
            obs_metrics.counter("sat.fallbacks").inc()

        if budget is not None and charge > budget:
            fallback()  # decided before a single solve call
            return None

        builder = self._ensure_builder()
        fanin_vars = [
            builder.var(self._signal_name(fanin)) for fanin in node.fanins
        ]
        guards: dict[int, int] = {}

        def charge_reachable(_pattern: int) -> None:
            nonlocal charge
            charge += 1
            if budget is not None and charge > budget:
                raise _BudgetExhausted

        try:
            # --- SDC phase: is any never-observed pattern reachable?
            unknown = [p for p in range(size) if not observed_any[p]]
            reachable_extra = self._resolve_candidates(
                unknown, fanin_vars, (), guards,
                charge_refutation=charge_reachable,
            )
            # --- ODC phase: is any reachable pattern observable?
            odc_candidates = [
                p
                for p in range(size)
                if not care_any[p]
                and (observed_any[p] or p in reachable_extra)
            ]
            any_diff = (
                self._ensure_flip(node_name) if odc_candidates else None
            )
            observable_extra = self._resolve_candidates(
                odc_candidates, fanin_vars,
                (any_diff,) if any_diff is not None else (), guards,
            )
        except _BudgetExhausted:
            fallback()
            return None

        confirmed = (len(unknown) - len(reachable_extra)) + (
            len(odc_candidates) - len(observable_extra)
        )
        obs_metrics.counter("sat.confirmations").inc(confirmed)
        obs_metrics.counter("sat.refutations").inc(
            len(reachable_extra) + len(observable_extra)
        )

        local_table = node.cover.evaluate()
        phases = np.full(size, DC, dtype=np.uint8)
        for pattern in range(size):
            if care_any[pattern] or pattern in observable_extra:
                phases[pattern] = ON if local_table[pattern] else OFF
        return FunctionSpec(
            phases[None, :],
            name=f"{node_name}/local-sat",
            input_names=tuple(node.fanins),
            output_names=(node_name,),
        )


def node_flexibility_sat(
    network: LogicNetwork,
    node_name: str,
    *,
    simulation_vectors: int = 256,
    rng: np.random.Generator | None = None,
) -> FunctionSpec:
    """The node's local flexibility, computed by simulation + SAT.

    Produces the same single-output spec over the node's fanins as
    :func:`repro.synth.odc.node_flexibility` (without external DCs), but
    scales to networks whose primary-input space cannot be enumerated.
    One-shot convenience front-end for
    :class:`CompleteFlexibilityOracle` (unbudgeted, so never ``None``);
    sweeping many nodes through one oracle instance amortises the
    network encoding and the learned clauses.

    Args:
        network: the network.
        node_name: node to analyse (must have few enough fanins that its
            ``2^k`` local pattern space is enumerable).
        simulation_vectors: random vectors used to pre-classify patterns.
        rng: random generator for the simulation phase.

    Raises:
        KeyError: for unknown node names.
        ValueError: for nodes wider than
            :data:`~repro.synth.odc.MAX_EXHAUSTIVE_FANINS`.
    """
    oracle = CompleteFlexibilityOracle(
        network, simulation_vectors=simulation_vectors, rng=rng
    )
    spec = oracle.node_flexibility(node_name)
    assert spec is not None  # unbudgeted oracles always conclude
    return spec


# --------------------------------------------------------------- scheduling


def plan_node_groups(
    network: LogicNetwork, names: list[str]
) -> list[list[str]]:
    """Partition *names* (topologically ordered candidates) into
    independent waves whose group-at-a-time schedule provably matches
    the strictly sequential one.

    A node's flexibility is a pure function of the *global functions* of
    its support — the transitive fanin of its fanout cone, i.e. every
    signal its reachability and observability queries can read.  A
    rewrite of node *b* can only change the functions of signals in
    ``TFO(b)`` — and not even all of those: primary-output functions are
    invariant across the whole pass (every rewrite is verified
    output-preserving), so a PO-driving signal keeps its function no
    matter how often cones below it are rewritten.  The effective
    dependency is therefore

        ``b -> n  iff  b precedes n and (TFO(b) \\ PO-drivers)``
        ``intersects support(n)``

    Longest-path layering of that DAG yields the waves: every node lands
    one wave after the last rewrite that could influence it, so
    computing a whole wave's flexibilities against the wave-start
    network sees exactly the rewrites the sequential schedule would —
    and the rewrites themselves commute across waves for the same
    reason, making the apply order irrelevant to the final network.

    Unlike a contiguous split of the topological order, waves batch
    *distant* independent cones together, which is what gives the pool
    something to chew on in dense networks.
    """
    po_drivers = set(network.outputs.values())
    waves: list[list[str]] = []
    wave_of: dict[str, int] = {}
    perturbed: list[set[str]] = []  # changed-signal union per prior node
    names = list(names)
    for name in names:
        tfo = set(network.fanout_cone(name))
        support = network.fanin_support(tfo)
        wave = 0
        for earlier_name, changed in zip(names, perturbed):
            if changed & support:
                wave = max(wave, wave_of[earlier_name] + 1)
        wave_of[name] = wave
        perturbed.append(tfo - po_drivers)
        while len(waves) <= wave:
            waves.append([])
        waves[wave].append(name)
    return [wave for wave in waves if wave]


@dataclass(frozen=True)
class _GroupPayload:
    """Everything a pool worker needs to confirm one group's nodes:
    the group-start network snapshot, the installed pattern matrix, and
    the oracle parameters.  Shipped once per group via ``map(shared=)``
    and decoded once per worker."""

    network: LogicNetwork
    vectors: np.ndarray
    base_vectors: int
    query_budget: int | None
    conflict_budget: int | None


def _support_subnetwork(
    network: LogicNetwork, name: str
) -> tuple[LogicNetwork, list[int]]:
    """The induced subnetwork a node's flexibility queries can read.

    Keeps exactly ``support(TFO(name))`` — the node's fanout cone, every
    signal transitively feeding it, and the primary outputs the cone
    drives.  The node's reachability, observability, simulation
    classification, and budget accounting over this subnetwork are
    *identical* to the full network's (they are functions of the kept
    signals only), so a pool worker can answer from the cone alone
    instead of encoding the whole design.

    Returns the subnetwork and the kept primary inputs' positions in the
    full input list (for slicing pattern matrices and re-expanding
    counterexample vectors).
    """
    tfo = set(network.fanout_cone(name))
    keep = network.fanin_support(tfo)
    pi_positions = [
        idx for idx, pi in enumerate(network.primary_inputs) if pi in keep
    ]
    sub = LogicNetwork(
        [network.primary_inputs[idx] for idx in pi_positions]
    )
    for node_name in network.topological_order():
        if node_name in keep:
            node = network.nodes[node_name]
            sub.add_node(node_name, list(node.fanins), node.cover)
    for out_name, signal in network.outputs.items():
        if signal in tfo:
            sub.set_output(out_name, signal)
    return sub, pi_positions


def _confirm_node_task(payload: _GroupPayload, name: str):
    """Pool task: one node's flexibility against the group snapshot.

    Builds a cone-restricted oracle — encoding cost proportional to the
    node's support, not the design — and returns
    ``(name, phases-or-None, counterexample rows)`` as raw data,
    reassembled into specs parent-side.  Counterexamples are expanded
    back to full-width PI vectors (unkept inputs read false, matching
    the solver's default for unconstrained variables).
    """
    network = payload.network
    sub, pi_positions = _support_subnetwork(network, name)
    oracle = CompleteFlexibilityOracle(
        sub,
        vectors=payload.vectors[:, pi_positions],
        base_vectors=payload.base_vectors,
        query_budget=payload.query_budget,
        conflict_budget=payload.conflict_budget,
    )
    spec = oracle.node_flexibility(name)
    rows = []
    for row in oracle.drain_counterexamples():
        full = np.zeros(len(network.primary_inputs), dtype=bool)
        full[pi_positions] = row
        rows.append(full.tolist())
    return (name, None if spec is None else spec.phases[0], rows)


@dataclass(frozen=True)
class CompleteDcReport:
    """Result of a SAT-complete internal-DC reassignment pass.

    Attributes:
        nodes_considered: nodes examined (wide nodes excluded).
        nodes_changed: nodes whose cover was rebuilt.
        dc_entries_assigned: local DC minterms decided for reliability.
        complete_dc_minterms: DC minterms confirmed by the complete
            extractor, totalled over the examined nodes.
        window_dc_minterms: DC minterms the window-limited baseline finds
            on the same nodes (0 when no baseline simulator fits).
        dc_delta: ``complete_dc_minterms - window_dc_minterms`` (the
            flexibility the SAT stage adds over the window extractor).
        sat_fallback_nodes: nodes that exhausted their budgets and used
            the window-limited extraction instead.
        error_rate_before / error_rate_after: internal error rates
            (``nan`` when the PI space is too large to simulate).
        node_groups: independent waves the candidate nodes split into
            (:func:`plan_node_groups`).
        parallel_groups: groups whose confirmation ran on the pool.
        recycled_patterns: refuting models installed as simulation
            patterns.
    """

    nodes_considered: int
    nodes_changed: int
    dc_entries_assigned: int
    complete_dc_minterms: int
    window_dc_minterms: int
    dc_delta: int
    sat_fallback_nodes: int
    error_rate_before: float
    error_rate_after: float
    node_groups: int = 0
    parallel_groups: int = 0
    recycled_patterns: int = 0


def reassign_complete_dcs(
    network: LogicNetwork,
    *,
    policy: str = "cfactor",
    threshold: float = DEFAULT_THRESHOLD,
    fraction: float = 1.0,
    max_fanins: int = 10,
    simulation_vectors: int = 256,
    query_budget: int | None = 256,
    conflict_budget: int | None = 10_000,
    window_levels: int = 2,
    rng: np.random.Generator | None = None,
    jobs: int = 1,
    progress=None,
) -> CompleteDcReport:
    """Reassign every node's *complete* internal DCs for reliability.

    The SAT-backed sibling of
    :func:`repro.synth.odc.reassign_internal_dcs` and the engine of the
    ``complete_dc`` pipeline stage: per node, simulation proposes DC
    candidates, shared-solver SAT queries confirm them exactly, the
    chosen policy assigns the confirmed flexibility, and ESPRESSO
    rebuilds the cover.

    Nodes are scheduled as independent waves (:func:`plan_node_groups`):
    a wave's flexibilities are confirmed against the wave-start network
    — serially or, with ``jobs > 1``, fanned out across the warm worker
    pool — and the rewrites applied sequentially, so every node sees
    flexibilities consistent with all earlier decisions and the result
    is bit-identical to the strictly sequential schedule (and to the
    parallel one; see the module docstring).

    A node that exhausts *query_budget* or *conflict_budget* falls back
    to the window-limited extractor (depth *window_levels*) when the PI
    space is small enough to simulate, else it is left untouched.  The
    same window extraction also provides the per-node baseline DC count
    recorded in the report and the ``complete_dc.*`` counters.

    Primary outputs are verified unchanged after every rewrite (packed
    compare when the PI space is enumerable) and once more at the end
    with a SAT miter against a pristine copy.

    Args:
        network: network to rewrite (mutated).
        policy: any of the evaluation's four assignment policies —
            ``"cfactor"`` (Fig. 7), ``"ranking"`` (Fig. 3),
            ``"complete"`` (assign every confirmed DC), or
            ``"conventional"`` (assign none; ESPRESSO exploits the
            confirmed flexibility freely).
        threshold: LC^f threshold for the cfactor policy.
        fraction: fraction of the ranked list for the ranking policy.
        max_fanins: skip (with ``complete_dc.wide_nodes_skipped``) nodes
            with more fanins than this.
        simulation_vectors: random vectors for candidate proposal.
        query_budget: max SAT queries per node (``None`` = unlimited).
        conflict_budget: per-solve conflict cap (``None`` = unlimited).
        window_levels: fanout-window depth of the fallback extractor.
        rng: random generator for the simulation phase.
        jobs: worker processes for group confirmation (``1`` = serial).
        progress: optional ``(done, total)`` callback over considered
            nodes.

    Raises:
        ValueError: on unknown policies, or if a rewrite changes the
            primary outputs (which would indicate an ODC or solver bug).
    """
    if policy not in ("conventional", "ranking", "cfactor", "complete"):
        raise ValueError(f"unknown policy {policy!r}")
    from ..perf.pool import get_pool

    full_sim: IncrementalNetworkSim | None = None
    reference = None
    pristine = None
    if len(network.primary_inputs) <= _FULL_SIM_MAX_PIS:
        full_sim = IncrementalNetworkSim(network)
        reference = full_sim.output_words().copy()
    else:
        pristine = copy.deepcopy(network)
    before = (
        internal_error_rate(network, sim=full_sim)
        if full_sim is not None
        else float("nan")
    )
    oracle = CompleteFlexibilityOracle(
        network,
        simulation_vectors=simulation_vectors,
        rng=rng,
        query_budget=query_budget,
        conflict_budget=conflict_budget,
    )
    candidates = []
    for name in network.topological_order():
        if len(network.nodes[name].fanins) > max_fanins:
            obs_metrics.counter("complete_dc.wide_nodes_skipped").inc()
            continue
        candidates.append(name)
    groups = plan_node_groups(network, candidates)
    use_pool = jobs > 1

    considered = 0
    changed = 0
    assigned_total = 0
    complete_minterms = 0
    window_minterms = 0
    fallback_nodes = 0
    parallel_groups = 0
    recycled_total = 0
    total = len(candidates)
    done = 0
    with span(
        "flexibility.reassign_complete",
        nodes=len(network.nodes),
        policy=policy,
        jobs=jobs,
        groups=len(groups),
    ):
        for group in groups:
            # --- Confirmation phase: group members are independent, so
            # their flexibilities against the group-start network equal
            # the sequential schedule's.
            confirm_start = perf_counter()
            locals_by_name: dict[str, FunctionSpec | None] = {}
            if use_pool and len(group) > 1:
                parallel_groups += 1
                obs_metrics.counter("complete_dc.parallel_nodes").inc(
                    len(group)
                )
                payload = _GroupPayload(
                    network=network,
                    vectors=oracle.vectors,
                    base_vectors=oracle.base_vectors,
                    query_budget=query_budget,
                    conflict_budget=conflict_budget,
                )
                base_done = done
                sub_progress = None
                if progress is not None:
                    def sub_progress(d, _t, _base=base_done):
                        progress(_base + d, total)
                outcomes = get_pool(jobs).map(
                    _confirm_node_task, list(group), jobs,
                    progress=sub_progress, shared=payload,
                )
                for name, phases, rows in outcomes:
                    if phases is None:
                        locals_by_name[name] = None
                    else:
                        node = network.nodes[name]
                        locals_by_name[name] = FunctionSpec(
                            np.asarray(phases, dtype=np.uint8)[None, :],
                            name=f"{name}/local-sat",
                            input_names=tuple(node.fanins),
                            output_names=(name,),
                        )
                    if rows:
                        oracle.record_counterexamples(rows)
                done = base_done + len(group)
                if progress is not None:
                    progress(done, total)
            else:
                for name in group:
                    locals_by_name[name] = oracle.node_flexibility(name)
                    done += 1
                    if progress is not None:
                        progress(done, total)
            obs_metrics.counter("complete_dc.confirm_seconds").inc(
                perf_counter() - confirm_start
            )
            # --- Apply phase: strictly sequential, in topological order.
            for name in group:
                node = network.nodes[name]
                considered += 1
                local = locals_by_name[name]
                window_local = None
                if local is None:
                    fallback_nodes += 1
                    if full_sim is None:
                        continue  # no sound fallback without full sim
                    local = node_flexibility(
                        network, name, sim=full_sim,
                        window_levels=window_levels,
                    )
                    window_local = local  # fallback IS the window answer
                local_dcs = int(np.count_nonzero(local.phases == DC))
                complete_minterms += local_dcs
                if full_sim is not None:
                    if window_local is None:
                        window_local = node_flexibility(
                            network, name, sim=full_sim,
                            window_levels=window_levels,
                        )
                    window_minterms += int(
                        np.count_nonzero(window_local.phases == DC)
                    )
                if not local_dcs:
                    continue
                if policy == "cfactor":
                    assignment = cfactor_assignment(local, threshold)
                elif policy == "ranking":
                    assignment = ranking_assignment(local, fraction)
                elif policy == "complete":
                    assignment = complete_assignment(local)
                else:  # conventional: leave the DCs to ESPRESSO
                    assignment = Assignment()
                assigned = (
                    assignment.apply(local) if len(assignment) else local
                )
                on_cover = Cover.from_minterms(
                    len(node.fanins), assigned.on_set(0)
                )
                dc_cover = Cover.from_minterms(
                    len(node.fanins), assigned.dc_set(0)
                )
                node.cover = espresso(on_cover, dc_cover)
                changed += 1
                assigned_total += len(assignment)
                oracle.notify_rewrite(name)
                if full_sim is not None:
                    full_sim.recompute(name)
                    if not bool(
                        np.array_equal(full_sim.output_words(), reference)
                    ):
                        raise ValueError(
                            f"rewriting node {name!r} changed the primary "
                            "outputs"
                        )
            # --- Recycling boundary: counterexamples become simulation
            # patterns for every later group, in both execution modes.
            recycled_total += oracle.flush_recycled()
        # With a full-space simulator every rewrite was already verified
        # by exhaustive packed compare — strictly stronger than a miter.
        # The SAT miter is the safety net for networks too wide for it.
        if pristine is not None and not networks_equivalent(pristine, network):
            raise ValueError(
                "complete-DC reassignment changed the primary outputs "
                "(SAT miter check)"
            )
        after = (
            internal_error_rate(network, sim=full_sim)
            if full_sim is not None
            else float("nan")
        )
    delta = complete_minterms - window_minterms
    obs_metrics.counter("complete_dc.nodes").inc(considered)
    obs_metrics.counter("complete_dc.nodes_changed").inc(changed)
    obs_metrics.counter("complete_dc.dc_minterms").inc(complete_minterms)
    obs_metrics.counter("complete_dc.window_dc_minterms").inc(window_minterms)
    obs_metrics.counter("complete_dc.dc_delta").inc(delta)
    obs_metrics.counter("complete_dc.fallback_nodes").inc(fallback_nodes)
    obs_metrics.counter("complete_dc.groups").inc(len(groups))
    obs_metrics.counter("complete_dc.parallel_groups").inc(parallel_groups)
    obs_metrics.counter("complete_dc.recycled_patterns").inc(recycled_total)
    return CompleteDcReport(
        nodes_considered=considered,
        nodes_changed=changed,
        dc_entries_assigned=assigned_total,
        complete_dc_minterms=complete_minterms,
        window_dc_minterms=window_minterms,
        dc_delta=delta,
        sat_fallback_nodes=fallback_nodes,
        error_rate_before=before,
        error_rate_after=after,
        node_groups=len(groups),
        parallel_groups=parallel_groups,
        recycled_patterns=recycled_total,
    )

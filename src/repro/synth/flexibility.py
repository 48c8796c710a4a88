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

**Query batching.**  Unconfirmed candidates are grouped and a fresh
one-hot selector (``s -> OR(cube guards)``) asks the solver whether *any*
candidate in the batch is reachable (or observable) with a single
``solve([s])``.  UNSAT confirms the whole batch at once; a SAT model
names exactly one refuted candidate (the fanin values in the model),
which is removed before the shrunken batch is re-queried.  Stale
selectors are simply never assumed again.

**Per-node cone encodings.**  :func:`reassign_complete_dcs` visits the
candidate nodes in topological order and confirms each one with a fresh
:class:`CompleteFlexibilityOracle` over the node's support subnetwork —
its fanout cone and everything feeding it — so encoding cost follows the
node's cone, not the design, and every node sees the rewrites of the
nodes before it.

**Counterexample recycling.**  Every refuting model is a concrete PI
vector.  After each node those vectors join the pattern set that every
later node simulates, so candidates they refute never reach the solver.

**Results independent of recycling.**  The extra patterns change *how
fast* answers arrive, never *which* answers: pattern statuses are exact
semantic facts, and the per-node query budget is charged against the
**base** pattern set only — one query per pattern the base patterns do
not prove a care, plus one more per base-unobserved pattern found
reachable.  A node therefore falls back to the window-limited extractor
on exactly the same inputs whatever counterexamples were recycled
before it.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..core.cfactor import DEFAULT_THRESHOLD
from ..core.spec import FunctionSpec
from ..core.truthtable import DC, OFF, ON
from ..obs import metrics as obs_metrics
from ..obs import span
from ..sat.encode import CnfBuilder, networks_equivalent
from ..sim import packed as pk
from ..sim.incremental import IncrementalNetworkSim
from .network import LogicNetwork
from .odc import (
    MAX_EXHAUSTIVE_FANINS,
    _check_policy,
    _rewrite_node,
    internal_error_rate,
    node_flexibility,
)

__all__ = [
    "node_flexibility_sat",
    "CompleteFlexibilityOracle",
    "CompleteDcReport",
    "reassign_complete_dcs",
]

_FULL_SIM_MAX_PIS = 20
"""PI count up to which the pass keeps a full-space exhaustive simulator
for the per-rewrite output self-check and the window-limited baseline;
beyond it only the final miter check and the SAT path remain."""

_MAX_FANINS = 10
"""Nodes with more fanins are skipped by :func:`reassign_complete_dcs`
(and counted in ``complete_dc.wide_nodes_skipped``)."""

_CONFLICT_BUDGET = 10_000
"""Per-solve conflict cap of :func:`reassign_complete_dcs`; an
inconclusive solve sends the node to the window-limited fallback."""

BATCH_SIZE = 16
"""Candidates per one-hot selector batch.  Large enough that an UNSAT
answer confirms a pile of candidates in one solve, small enough that the
final complete-search UNSAT proof per batch stays shallow (the measured
sweet spot on the benchmark circuits; 32 starts losing to the deeper
selector refutations)."""

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class _BudgetExhausted(Exception):
    """Internal: a node hit its query budget or an inconclusive solve;
    the caller falls back to the window extractor."""


class CompleteFlexibilityOracle:
    """Per-node complete flexibility of one network.

    One CNF copy of the network is built lazily and shared by every
    node's queries; each queried node adds a private flipped cone
    (``F<i>_`` prefix) plus a PO-difference indicator to the same solver.
    A packed simulation of the installed pattern set pre-classifies
    patterns so SAT only sees genuine candidates.  The network must not
    change while the oracle is in use.

    Attributes:
        network: the analysed network.
        query_budget: max SAT queries charged per node (``None`` =
            unlimited; see the module docstring for the charge);
            exhausting it makes :meth:`node_flexibility` return ``None``.
        conflict_budget: per-solve conflict cap (``None`` = unlimited);
            an inconclusive solve also returns ``None``.
        counterexamples: the PI vectors of every refuting model, in the
            order found, without repeats or installed patterns.
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
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=bool))
        total = vectors.shape[0]
        base = total if base_vectors is None else base_vectors
        self._vector_keys = {row.tobytes() for row in vectors}
        self.counterexamples: list[np.ndarray] = []
        self.sim = IncrementalNetworkSim(
            network, pk.pack_matrix(vectors), total
        )
        # Word mask selecting the first ``base`` vector bits.
        self._base_mask = np.zeros(pk.num_words(total), dtype=np.uint64)
        full, rem = divmod(base, 64)
        self._base_mask[:full] = _ALL_ONES
        if rem and full < self._base_mask.shape[0]:
            self._base_mask[full] = np.uint64((1 << rem) - 1)
        self._builder: CnfBuilder | None = None
        self._flip_count = 0
        self._restarts_seen = 0

    # -------------------------------------------------------------- encoding

    def _signal_name(self, signal: str) -> str:
        if signal in self.network.primary_inputs:
            return signal
        return f"N_{signal}"

    def _ensure_builder(self) -> CnfBuilder:
        if self._builder is None:
            builder = CnfBuilder()
            for name in self.network.topological_order():
                node = self.network.nodes[name]
                builder.encode_sop(
                    self._signal_name(name),
                    [self._signal_name(f) for f in node.fanins],
                    node.cover,
                )
            self._builder = builder
        return self._builder

    def _encode_flip(self, node_name: str) -> int:
        """A fresh flipped copy of the node's fanout cone; returns the
        variable that is true iff some primary output differs."""
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
        for name in cone:
            if name == node_name:
                continue
            node = self.network.nodes[name]
            builder.encode_sop(
                flip_name(name), [flip_name(f) for f in node.fanins], node.cover
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
        return any_diff

    # --------------------------------------------------------------- queries

    def _solve(self, assumptions) -> tuple[bool | None, dict[int, bool]]:
        solver = self._ensure_builder().solver
        obs_metrics.counter("sat.queries").inc()
        sat, model = solver.solve(
            assumptions, max_conflicts=self.conflict_budget
        )
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

    def _record_counterexample(self, row: np.ndarray) -> None:
        key = row.tobytes()
        if key in self._vector_keys:
            return
        self._vector_keys.add(key)
        self.counterexamples.append(row)
        obs_metrics.counter("sat.cex_recycled").inc()

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
                self._record_counterexample(self._model_row(builder, model))
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
            self.sim.num_vectors,
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
                self._encode_flip(node_name) if odc_candidates else None
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


def _support_subnetwork(
    network: LogicNetwork, name: str
) -> tuple[LogicNetwork, list[int]]:
    """The induced subnetwork a node's flexibility queries can read.

    Keeps exactly ``support(TFO(name))`` — the node's fanout cone, every
    signal transitively feeding it, and the primary outputs the cone
    drives.  The node's reachability, observability, simulation
    classification, and budget accounting over this subnetwork are
    *identical* to the full network's (they are functions of the kept
    signals only), so the node can be answered from the cone alone
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
        recycled_patterns: refuting models added to the simulation
            patterns of later nodes.
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
    recycled_patterns: int = 0


def reassign_complete_dcs(
    network: LogicNetwork,
    *,
    policy: str = "cfactor",
    threshold: float = DEFAULT_THRESHOLD,
    simulation_vectors: int = 256,
    query_budget: int | None = 256,
    window_levels: int = 2,
    rng: np.random.Generator | None = None,
    progress=None,
) -> CompleteDcReport:
    """Reassign every node's *complete* internal DCs for reliability.

    The SAT-backed sibling of
    :func:`repro.synth.odc.reassign_internal_dcs` and the engine of the
    ``complete_dc`` pipeline stage: per node, in topological order,
    simulation proposes DC candidates, SAT queries on the node's support
    subnetwork confirm them exactly, the chosen policy assigns the
    confirmed flexibility, and ESPRESSO rebuilds the cover — so every
    node sees flexibilities consistent with all earlier decisions.  The
    refuting models of each node join the simulation patterns of every
    later one (see the module docstring).

    A node that exhausts *query_budget* or the per-solve conflict cap
    falls back to the window-limited extractor (depth *window_levels*)
    when the PI space is small enough to simulate, else it is left
    untouched.  The same window extraction also provides the per-node
    baseline DC count recorded in the report and the ``complete_dc.*``
    counters.  Nodes with more than 10 fanins are skipped (counted in
    ``complete_dc.wide_nodes_skipped``).

    Primary outputs are verified unchanged.  Up to
    ``_FULL_SIM_MAX_PIS`` (20) primary inputs, every rewrite is checked
    by an exhaustive packed compare against the original outputs and no
    miter runs; above it, one SAT miter against a pristine copy checks
    the finished network.

    Args:
        network: network to rewrite (mutated).
        policy: any of the evaluation's four assignment policies —
            ``"cfactor"`` (Fig. 7), ``"ranking"`` (Fig. 3, the whole
            ranked list), ``"complete"`` (assign every confirmed DC), or
            ``"conventional"`` (assign none; ESPRESSO exploits the
            confirmed flexibility freely).
        threshold: LC^f threshold for the cfactor policy.
        simulation_vectors: random vectors for candidate proposal.
        query_budget: max SAT queries per node (``None`` = unlimited).
        window_levels: fanout-window depth of the fallback extractor.
        rng: random generator for the simulation phase.
        progress: optional ``(done, total)`` callback over considered
            nodes.

    Raises:
        ValueError: on unknown policies, on *window_levels* < 1, or if a
            rewrite changes the primary outputs (which would indicate an
            ODC or solver bug).
    """
    _check_policy(policy)
    if window_levels < 1:
        raise ValueError(f"window_levels must be >= 1, got {window_levels}")

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
    rng = rng or np.random.default_rng(0)
    patterns = (
        rng.random((simulation_vectors, len(network.primary_inputs))) < 0.5
    )
    candidates = []
    for name in network.topological_order():
        if len(network.nodes[name].fanins) > _MAX_FANINS:
            obs_metrics.counter("complete_dc.wide_nodes_skipped").inc()
            continue
        candidates.append(name)

    changed = 0
    assigned_total = 0
    complete_minterms = 0
    window_minterms = 0
    fallback_nodes = 0
    recycled_total = 0
    with span(
        "flexibility.reassign_complete",
        nodes=len(network.nodes),
        policy=policy,
    ):
        for done, name in enumerate(candidates, 1):
            # --- Confirmation on the node's own cone encoding.
            sub, pi_positions = _support_subnetwork(network, name)
            oracle = CompleteFlexibilityOracle(
                sub,
                vectors=patterns[:, pi_positions],
                base_vectors=simulation_vectors,
                query_budget=query_budget,
                conflict_budget=_CONFLICT_BUDGET,
            )
            local = oracle.node_flexibility(name)
            if oracle.counterexamples:
                # Unkept inputs read false, as unconstrained PIs do in a
                # model.
                rows = np.zeros(
                    (len(oracle.counterexamples), patterns.shape[1]),
                    dtype=bool,
                )
                rows[:, pi_positions] = oracle.counterexamples
                patterns = np.vstack([patterns, rows])
                recycled_total += len(rows)
            if progress is not None:
                progress(done, len(candidates))
            # --- Rewrite phase.
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
            assigned_total += _rewrite_node(
                network.nodes[name], local, policy, threshold=threshold
            )
            changed += 1
            if full_sim is not None:
                full_sim.recompute(name)
                if not bool(
                    np.array_equal(full_sim.output_words(), reference)
                ):
                    raise ValueError(
                        f"rewriting node {name!r} changed the primary "
                        "outputs"
                    )
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
    obs_metrics.counter("complete_dc.nodes").inc(len(candidates))
    obs_metrics.counter("complete_dc.nodes_changed").inc(changed)
    obs_metrics.counter("complete_dc.dc_minterms").inc(complete_minterms)
    obs_metrics.counter("complete_dc.window_dc_minterms").inc(window_minterms)
    obs_metrics.counter("complete_dc.dc_delta").inc(delta)
    obs_metrics.counter("complete_dc.fallback_nodes").inc(fallback_nodes)
    obs_metrics.counter("complete_dc.recycled_patterns").inc(recycled_total)
    return CompleteDcReport(
        nodes_considered=len(candidates),
        nodes_changed=changed,
        dc_entries_assigned=assigned_total,
        complete_dc_minterms=complete_minterms,
        window_dc_minterms=window_minterms,
        dc_delta=delta,
        sat_fallback_nodes=fallback_nodes,
        error_rate_before=before,
        error_rate_after=after,
        recycled_patterns=recycled_total,
    )

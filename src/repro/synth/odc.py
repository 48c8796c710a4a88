"""Internal don't cares and nodal decomposition (Sec. 4 of the paper).

Beyond the *external* DC sets of the specification, every node of a
multi-level network has *internal* flexibility:

* **satisfiability DCs** — fanin patterns no primary-input vector produces;
* **observability DCs** — input vectors under which the node's value never
  reaches a primary output.

The paper's nodal-decomposition extension extracts these per-node DC sets
and runs the same reliability-driven assignment on them, increasing the
rate at which errors *inside* the circuit are logically masked.  This
module implements the extraction (exhaustive and exact over the PI space),
the reassignment loop, and the internal-error-rate metric used to evaluate
it.

All three run on the packed simulation engine (:mod:`repro.sim`): the
network is simulated once into 64-vectors-per-word signals, each node
flip re-evaluates only the flipped node's fanout cone
(:class:`~repro.sim.incremental.IncrementalNetworkSim`), and pattern
reachability/observability is decided with per-pattern word masks
instead of scatter operations.  An N-node sweep therefore costs
``O(sum of cone sizes)`` node evaluations rather than N full network
re-simulations; ``_evaluate_with_flip`` keeps the original full-walk
boolean implementation as the oracle for the equivalence tests and the
``odc_incremental_vs_full`` benchmark baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from ..sim import packed as pk
from ..sim.engine import eval_node
from ..sim.incremental import IncrementalNetworkSim
from .network import LogicNetwork

__all__ = [
    "MAX_EXHAUSTIVE_FANINS",
    "node_flexibility",
    "internal_error_rate",
    "reassign_internal_dcs",
    "NodalReport",
]

MAX_EXHAUSTIVE_FANINS = 16
"""Hard cap on node fanin count for local-flexibility extraction.

Every extractor materialises the node's ``2^k`` local pattern space (the
``phases`` array of the returned :class:`FunctionSpec`), so a wide node
would silently allocate gigabytes before failing.  Extraction raises a
:class:`ValueError` above this cap instead; callers that sweep whole
networks (:func:`reassign_internal_dcs`) skip such nodes explicitly.
"""


def _evaluate_with_flip(
    network: LogicNetwork, values: dict[str, np.ndarray], flip: str
) -> np.ndarray:
    """PO tables when signal *flip*'s value is complemented everywhere.

    Boolean full-topological-walk reference for the packed cone-restricted
    path (:meth:`IncrementalNetworkSim.flip_outputs`); used by the
    equivalence tests and benchmark baselines, not by the hot paths.
    """
    patched: dict[str, np.ndarray] = dict(values)
    patched[flip] = ~values[flip]
    for name in network.topological_order():
        if name == flip:
            continue
        node = network.nodes[name]
        if not any(fanin == flip or patched[fanin] is not values[fanin]
                   for fanin in node.fanins):
            continue
        local_table = node.cover.evaluate()
        pattern = np.zeros(values[name].shape, dtype=np.int64)
        for position, fanin in enumerate(node.fanins):
            pattern |= patched[fanin].astype(np.int64) << position
        patched[name] = local_table[pattern]
    return np.vstack([patched[sig] for sig in network.outputs.values()])


def _window_observability(
    network: LogicNetwork,
    node_name: str,
    sim: IncrementalNetworkSim,
    window_levels: int,
) -> np.ndarray:
    """OR-reduced packed flip-diff at a k-level fanout-window boundary.

    The window is the BFS fanout neighbourhood of *node_name* up to
    *window_levels* levels deep; observation points are the window
    signals that are primary outputs or feed a reader outside the
    window.  Every path from the node to a primary output crosses an
    observation point, so a vector under which no observation point
    changes cannot change any PO — window-limited ODCs are a sound
    subset of the complete ones.
    """
    if window_levels < 1:
        raise ValueError(f"window_levels must be >= 1, got {window_levels}")
    fanouts = network.fanouts()
    window = network.fanout_window(node_name, window_levels)
    po_signals = set(network.outputs.values())
    observation = [
        signal
        for signal in window
        if signal in po_signals
        or any(reader not in window for reader in fanouts.get(signal, []))
    ]
    position = {name: i for i, name in enumerate(network.topological_order())}
    patched: dict[str, np.ndarray] = {
        node_name: pk.zero_tail(~sim.values[node_name], sim.num_vectors)
    }
    for name in sorted(window - {node_name}, key=position.__getitem__):
        node = network.nodes[name]
        fanin_words = [patched.get(f, sim.values[f]) for f in node.fanins]
        patched[name] = eval_node(node.cover, fanin_words, sim.num_vectors)
    observable = np.zeros(sim.num_words, dtype=np.uint64)
    for signal in observation:
        observable |= patched[signal] ^ sim.values[signal]
    return observable


def node_flexibility(
    network: LogicNetwork,
    node_name: str,
    *,
    sim: IncrementalNetworkSim | None = None,
    window_levels: int | None = None,
) -> FunctionSpec:
    """The node's local incompletely specified function over its fanins.

    A fanin pattern is DC when it is unreachable (SDC) or when every PI
    vector producing it is observability-don't-care — flipping the node
    under those vectors changes no primary output.

    Args:
        network: the network.
        node_name: node to analyse.
        sim: a live :class:`IncrementalNetworkSim` for the network
            (optional, for reuse across nodes — the cheap path).
        window_levels: when given, judge observability at the boundary
            of a fanout window this many levels deep instead of at the
            primary outputs.  Cheaper on deep networks and the fallback
            used by the ``complete_dc`` stage on SAT-budget exhaustion;
            the resulting DC set is a subset of the complete one.

    Returns:
        A single-output :class:`FunctionSpec` over the node's fanins.

    Raises:
        ValueError: when the node has more than
            :data:`MAX_EXHAUSTIVE_FANINS` fanins (the ``2^k`` local
            pattern space would not be materialisable), or when
            *window_levels* is given but < 1.
    """
    if sim is None:
        sim = IncrementalNetworkSim(network)
    node = network.nodes[node_name]
    k = len(node.fanins)
    if k > MAX_EXHAUSTIVE_FANINS:
        raise ValueError(
            f"node {node_name!r} has {k} fanins; local flexibility "
            f"enumerates 2^k patterns and is capped at "
            f"{MAX_EXHAUSTIVE_FANINS} fanins"
        )
    num_vectors = sim.num_vectors

    if window_levels is not None:
        observable = _window_observability(network, node_name, sim, window_levels)
    else:
        diff = sim.output_words() ^ sim.flip_outputs(node_name)
        observable = np.bitwise_or.reduce(diff, axis=0)

    masks = pk.pattern_masks([sim.values[f] for f in node.fanins], num_vectors)
    cares = np.any(masks & observable, axis=1)
    # Reachable but never-observable patterns and unreachable patterns both
    # stay DC.
    local_values = node.cover.evaluate()
    phases = np.full(1 << k, DC, dtype=np.uint8)
    phases[cares] = np.where(local_values[cares], ON, OFF)
    return FunctionSpec(
        phases[None, :],
        name=f"{node_name}/local",
        input_names=tuple(node.fanins),
        output_names=(node_name,),
    )


def internal_error_rate(
    network: LogicNetwork,
    *,
    source_mask: np.ndarray | None = None,
    sim: IncrementalNetworkSim | None = None,
    fault_model=None,
) -> float:
    """Probability that a random internal-node fault propagates.

    Averages, over all internal nodes and admissible PI vectors, the
    indicator that injecting the fault on the node changes at least one
    primary output.  The default fault is the registered ``node_flip``
    model (the paper-era complement); any node-scope
    :class:`~repro.faults.FaultModel` — e.g. ``StuckAtNode`` — can be
    injected instead.  This is the circuit-internal analogue of the
    paper's input-error rate and the metric the nodal-decomposition
    extension improves.

    Args:
        network: the network under test.
        source_mask: admissible PI vectors (default: all).
        sim: a live :class:`IncrementalNetworkSim` to reuse (optional).
        fault_model: node-scope fault model or declarative spec
            (default: ``node_flip``).
    """
    node_names = list(network.nodes)
    if not node_names:
        return 0.0
    from ..faults import create_fault_model

    fault_model = create_fault_model(
        "node_flip" if fault_model is None else fault_model
    )
    fault_model.require_scope("node")
    if sim is None:
        sim = IncrementalNetworkSim(network)
    if source_mask is None:
        source_words = None
        admissible = sim.num_vectors
    else:
        source_words = pk.pack_bool(np.asarray(source_mask, dtype=bool))
        admissible = pk.popcount(source_words)
    total = 0
    with span("odc.internal_error_rate", nodes=len(node_names)):
        for name in node_names:
            diff = fault_model.node_difference(sim, name)
            if source_words is not None:
                diff = diff & source_words
            total += pk.popcount(diff)
    return total / (len(node_names) * max(1, admissible))


@dataclass(frozen=True)
class NodalReport:
    """Result of an internal-DC reassignment pass.

    Attributes:
        nodes_changed: nodes whose cover was rebuilt.
        dc_entries_assigned: total local DC minterms decided for reliability.
        error_rate_before / error_rate_after: internal error rates.
    """

    nodes_changed: int
    dc_entries_assigned: int
    error_rate_before: float
    error_rate_after: float


def _check_policy(policy: str) -> None:
    """Reject policies the nodal passes do not know."""
    if policy not in ("conventional", "ranking", "cfactor", "complete"):
        raise ValueError(f"unknown policy {policy!r}")


def _rewrite_node(node, local: FunctionSpec, policy: str, *, threshold: float) -> int:
    """Assign *local*'s DCs under *policy* and rebuild *node*'s cover.

    The rewrite step both nodal passes share: the policy decides some DC
    entries of the node's local flexibility (ranking takes its whole
    ranked list), and ESPRESSO rebuilds the cover from the ON set with
    the remaining DCs.  Returns the number of DC entries the policy
    assigned.
    """
    if policy == "cfactor":
        assignment = cfactor_assignment(local, threshold)
    elif policy == "ranking":
        assignment = ranking_assignment(local, 1.0)
    elif policy == "complete":
        assignment = complete_assignment(local)
    else:  # conventional: leave the DCs to ESPRESSO
        assignment = Assignment()
    assigned = assignment.apply(local) if len(assignment) else local
    width = len(node.fanins)
    node.cover = espresso(
        Cover.from_minterms(width, assigned.on_set(0)),
        Cover.from_minterms(width, assigned.dc_set(0)),
    )
    return len(assignment)


def reassign_internal_dcs(
    network: LogicNetwork,
    *,
    policy: str = "cfactor",
    threshold: float = DEFAULT_THRESHOLD,
    max_fanins: int = 10,
) -> NodalReport:
    """Reassign every node's internal DCs for reliability (in place).

    Nodes are processed one at a time and the affected fanout cone
    re-simulated after each rewrite, so later nodes see flexibilities
    consistent with earlier decisions (the classic compatibility issue
    with simultaneous ODCs).  Remaining DCs are used conventionally by
    ESPRESSO when rebuilding the node cover, so area can *shrink* while
    masking improves.

    One packed simulator is shared across the whole pass: flexibility
    extraction, the per-rewrite output self-check, and both error-rate
    measurements (node flip) reuse its signal values, and every rewrite
    refreshes only the rewritten node's cone.

    Args:
        network: network to rewrite (mutated).
        policy: ``"cfactor"`` (Fig. 7), ``"ranking"`` (Fig. 3, the
            whole ranked list), ``"complete"`` (assign every DC for
            masking), or ``"conventional"`` (leave the DCs to ESPRESSO).
        threshold: LC^f threshold for the cfactor policy.
        max_fanins: fanin budget for the exhaustive extractor; wider
            nodes are left untouched and counted in
            ``odc.wide_nodes_skipped``.

    Raises:
        ValueError: on unknown policies, or if a rewrite changes the
            primary outputs (which would indicate an ODC bug).
    """
    _check_policy(policy)
    with span("odc.reassign", nodes=len(network.nodes), policy=policy):
        sim = IncrementalNetworkSim(network)
        reference = sim.output_words().copy()
        before = internal_error_rate(network, sim=sim)
        changed = 0
        assigned_total = 0
        for name in list(network.topological_order()):
            node = network.nodes[name]
            if len(node.fanins) > max_fanins:
                obs_metrics.counter("odc.wide_nodes_skipped").inc()
                continue
            local = node_flexibility(network, name, sim=sim)
            if not int(np.count_nonzero(local.phases == DC)):
                continue
            assigned_total += _rewrite_node(
                node, local, policy, threshold=threshold
            )
            changed += 1
            sim.recompute(name)
            if not bool(np.array_equal(sim.output_words(), reference)):
                raise ValueError(
                    f"rewriting node {name!r} changed the primary outputs"
                )
        after = internal_error_rate(network, sim=sim)
    return NodalReport(changed, assigned_total, before, after)

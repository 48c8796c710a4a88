"""Packed simulators for every circuit representation.

One shared set of kernels (:mod:`repro.sim.packed`) drives
:class:`~repro.synth.network.LogicNetwork`,
:class:`~repro.synth.netlist.MappedNetlist` and
:class:`~repro.synth.aig.Aig` simulation: signals are uint64 word arrays
(64 vectors per word), node functions are applied by Shannon-reducing the
node's dense local table (narrow nodes) or OR-ing packed cube terms (wide
nodes), and the exhaustive primary-input space is generated directly in
the packed domain.

The module also provides the *evaluator factories* the Monte-Carlo path
consumes (:func:`packed_network_evaluator` and friends): callables
mapping packed input words straight to packed output words, so sampling
never materialises byte-per-vector arrays.

Instrumentation: the ``sim.words`` counter accumulates the number of
packed words produced (one per node per 64 vectors), making relative
simulation volume visible in ``--metrics-out`` dumps alongside the
``espresso.*`` and ``cache.*`` families.
"""

from __future__ import annotations

import numpy as np

from ..obs import metrics as obs_metrics
from . import packed as pk

__all__ = [
    "eval_node",
    "network_values",
    "network_output_words",
    "netlist_values",
    "aig_output_words",
    "packed_network_evaluator",
    "packed_netlist_evaluator",
]

_TABLE_WIDTH_LIMIT = 12
"""Never build a dense table beyond this many fanins (a ``2**k`` table
would dwarf the cube list it replaces)."""


def eval_node(cover, fanin_words, num_vectors: int) -> np.ndarray:
    """Apply one SOP node to its packed fanin signals.

    Chooses between the two kernels by estimated cost in word-wise numpy
    operations: the dense-table kernel costs ``~3k`` operations on
    ``2**k``-row intermediates (cheap for narrow or cube-rich nodes), the
    cube kernel one operation per literal and cube (cheap for wide sparse
    SOPs, the shape ESPRESSO leaves behind).  The table estimate carries a
    memory term so ``2**k``-row intermediates that spill out of cache are
    charged for their bandwidth.
    """
    k = cover.num_inputs
    if k <= _TABLE_WIDTH_LIMIT:
        table_cost = 3 * k + 7 + (((1 << k) * pk.num_words(num_vectors)) >> 12)
        cube_cost = cover.num_literals + 2 * cover.num_cubes + 2
        if table_cost <= cube_cost:
            return pk.eval_table(cover.table(), fanin_words, num_vectors)
    return pk.eval_cover(cover, fanin_words, num_vectors)


def _resolve_inputs(names, pi_words, num_vectors):
    """Normalise the (pi_words, num_vectors) pair; default = exhaustive."""
    if pi_words is None:
        num_vectors = 1 << len(names)
        if names:
            pi_words = pk.pi_space(len(names))
        else:  # degenerate constant circuit: one vector, no input rows
            pi_words = np.zeros((0, 1), dtype=np.uint64)
    else:
        pi_words = np.asarray(pi_words, dtype=np.uint64)
        if num_vectors is None:
            raise ValueError("num_vectors is required with explicit pi_words")
        if pi_words.shape != (len(names), pk.num_words(num_vectors)):
            raise ValueError(
                f"expected ({len(names)}, {pk.num_words(num_vectors)}) input words, "
                f"got {pi_words.shape}"
            )
    return pi_words, num_vectors


def network_values(network, pi_words=None, num_vectors=None) -> dict[str, np.ndarray]:
    """Packed value of every signal of a :class:`LogicNetwork`.

    Args:
        network: the network.
        pi_words: packed primary-input signals, shape ``(num_pis, W)``;
            defaults to the exhaustive ``2**n`` input space.
        num_vectors: valid bit count (required with explicit *pi_words*).
    """
    pi_words, num_vectors = _resolve_inputs(
        network.primary_inputs, pi_words, num_vectors
    )
    values: dict[str, np.ndarray] = {
        name: pi_words[position]
        for position, name in enumerate(network.primary_inputs)
    }
    order = network.topological_order()
    for name in order:
        node = network.nodes[name]
        values[name] = eval_node(
            node.cover, [values[fanin] for fanin in node.fanins], num_vectors
        )
    obs_metrics.counter("sim.words").inc(pk.num_words(num_vectors) * len(order))
    return values


def network_output_words(network, values: dict[str, np.ndarray]) -> np.ndarray:
    """Stacked packed PO tables, ordered by output declaration."""
    return np.array([values[signal] for signal in network.outputs.values()])


def netlist_values(netlist, pi_words=None, num_vectors=None) -> dict[str, np.ndarray]:
    """Packed value of every signal of a :class:`MappedNetlist`."""
    pi_words, num_vectors = _resolve_inputs(
        netlist.primary_inputs, pi_words, num_vectors
    )
    words = pk.num_words(num_vectors)
    values: dict[str, np.ndarray] = {
        name: pi_words[position]
        for position, name in enumerate(netlist.primary_inputs)
    }
    for name, constant in netlist.constants.items():
        value = np.full(words, pk.ALL_ONES if constant else np.uint64(0), np.uint64)
        values[name] = pk.zero_tail(value, num_vectors)
    for gate in netlist.gates:
        values[gate.output] = pk.eval_table(
            gate.cell.table, [values[signal] for signal in gate.inputs], num_vectors
        )
    obs_metrics.counter("sim.words").inc(words * len(netlist.gates))
    return values


def aig_output_words(aig) -> dict[str, np.ndarray]:
    """Exhaustive packed PO tables of an :class:`Aig` (output name -> words)."""
    pi_words, num_vectors = _resolve_inputs(aig.pi_names, None, None)
    words = pk.num_words(num_vectors)
    tables: dict[int, np.ndarray] = {0: np.zeros(words, dtype=np.uint64)}
    for position in range(aig.num_pis):
        tables[position + 1] = pi_words[position]

    def lit_words(lit: int) -> np.ndarray:
        value = tables[aig.lit_node(lit)]
        if aig.lit_phase(lit):
            return pk.zero_tail(~value, num_vectors)
        return value

    for node in sorted(aig.fanins):
        a, b = aig.fanins[node]
        tables[node] = lit_words(a) & lit_words(b)
    obs_metrics.counter("sim.words").inc(words * len(aig.fanins))
    return {name: lit_words(lit) for name, lit in aig.outputs.items()}


# ------------------------------------------------------------ MC evaluators


def packed_network_evaluator(network):
    """A packed evaluator (``(n, W)`` words -> ``(outputs, W)`` words) for
    :func:`repro.core.montecarlo.estimate_error_rate`."""

    def evaluate(pi_words: np.ndarray, num_vectors: int) -> np.ndarray:
        values = network_values(network, pi_words, num_vectors)
        return network_output_words(network, values)

    return evaluate


def packed_netlist_evaluator(netlist):
    """Packed Monte-Carlo evaluator for a mapped netlist."""

    def evaluate(pi_words: np.ndarray, num_vectors: int) -> np.ndarray:
        values = netlist_values(netlist, pi_words, num_vectors)
        return np.array([values[signal] for signal in netlist.outputs.values()])

    return evaluate

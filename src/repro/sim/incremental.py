"""Incremental fanout-cone re-simulation for node-flip analysis.

The exhaustive ODC extraction and the internal-error-rate metric both ask
the same question for every node of a network: *what do the primary
outputs look like when this node's value is complemented?*  Answering it
by re-walking the full topological order per node costs ``O(N)`` node
evaluations per flip — ``O(N^2)`` for a whole network sweep.

:class:`IncrementalNetworkSim` keeps the packed base values of every
signal and re-evaluates only the flipped node's *fanout cone* (its
transitive readers, in topological order).  Primary outputs outside the
cone are returned by reference to the base arrays, so a flip costs
``O(cone size)`` node evaluations — for typical multi-level networks a
small fraction of ``N``.  The same machinery supports *rewrites*: after a
node's cover changes (the nodal reassignment loop), :meth:`recompute`
refreshes the node and its cone in place instead of re-simulating the
network from scratch.

Cone membership depends only on network structure, so cones are cached
per node; the cache stays valid across cover rewrites (which preserve
fanins) and is rebuilt only when a new simulator is constructed.

Instrumentation: ``sim.cone_nodes`` counts node evaluations performed by
flips and recomputes — the direct measure of how much work cone
restriction saves versus ``flips * N``.
"""

from __future__ import annotations

import numpy as np

from ..obs import metrics as obs_metrics
from . import packed as pk
from .engine import eval_node, network_values

__all__ = ["IncrementalNetworkSim"]


class IncrementalNetworkSim:
    """Packed network values plus cone-restricted flip evaluation.

    Attributes:
        network: the simulated network (structure must not change while
            the simulator is alive; cover rewrites are fine when followed
            by :meth:`recompute`).
        values: packed value words of every signal, kept current.
        num_vectors: simulated vector count (``2**num_pis`` by default).
    """

    def __init__(self, network, pi_words=None, num_vectors=None):
        self.network = network
        self.values = network_values(network, pi_words, num_vectors)
        if pi_words is None:
            num_vectors = 1 << len(network.primary_inputs)
        self.num_vectors: int = num_vectors
        self.num_words: int = pk.num_words(num_vectors)
        order = network.topological_order()
        self._position = {name: index for index, name in enumerate(order)}
        self._fanouts = network.fanouts()
        self._cones: dict[str, tuple[str, ...]] = {}

    # -------------------------------------------------------------- structure

    def cone(self, name: str) -> tuple[str, ...]:
        """The strict fanout cone of *name*, in topological order."""
        cached = self._cones.get(name)
        if cached is None:
            members: set[str] = set()
            stack = [name]
            while stack:
                current = stack.pop()
                for reader in self._fanouts.get(current, []):
                    if reader not in members:
                        members.add(reader)
                        stack.append(reader)
            cached = tuple(sorted(members, key=self._position.__getitem__))
            self._cones[name] = cached
        return cached

    # -------------------------------------------------------------- queries

    def output_words(self) -> np.ndarray:
        """Stacked packed PO tables (rows alias the base value arrays)."""
        return np.array(
            [self.values[signal] for signal in self.network.outputs.values()]
        )

    def _patched_outputs(self, signal: str, patched_words: np.ndarray) -> np.ndarray:
        """Packed PO tables when *signal*'s value is replaced wholesale.

        The shared cone-re-evaluation kernel behind :meth:`flip_outputs`
        (complement) and :meth:`forced_outputs` (stuck-at constant):
        only the cone of *signal* is re-evaluated; untouched outputs
        share the base arrays, so comparing against
        :meth:`output_words` costs one XOR per word.
        """
        cone = self.cone(signal)
        obs_metrics.counter("sim.cone_nodes").inc(len(cone))
        patched: dict[str, np.ndarray] = {signal: patched_words}
        for name in cone:
            node = self.network.nodes[name]
            fanins = [
                patched.get(fanin, self.values[fanin]) for fanin in node.fanins
            ]
            patched[name] = eval_node(node.cover, fanins, self.num_vectors)
        return np.array(
            [
                patched.get(signal_name, self.values[signal_name])
                for signal_name in self.network.outputs.values()
            ]
        )

    def flip_outputs(self, flip: str) -> np.ndarray:
        """Packed PO tables when signal *flip* is complemented everywhere."""
        return self._patched_outputs(
            flip, pk.zero_tail(~self.values[flip], self.num_vectors)
        )

    def flip_difference(self, flip: str) -> np.ndarray:
        """One word row: bit *v* set iff *some* PO changes under the flip."""
        base = self.output_words()
        flipped = self.flip_outputs(flip)
        return np.bitwise_or.reduce(base ^ flipped, axis=0)

    def forced_outputs(self, name: str, value: bool) -> np.ndarray:
        """Packed PO tables when signal *name* is stuck at *value*.

        The stuck-at counterpart of :meth:`flip_outputs`: the signal is
        forced to the constant on every vector and its fanout cone is
        re-evaluated.  Vectors where the signal already equals *value*
        see unchanged cone inputs, so their outputs match the base
        tables bit for bit — the classical "fault not excited" case
        falls out of the packed evaluation for free.
        """
        base = self.values[name]
        if value:
            forced = pk.zero_tail(
                np.full_like(base, np.iinfo(np.uint64).max), self.num_vectors
            )
        else:
            forced = np.zeros_like(base)
        return self._patched_outputs(name, forced)

    def forced_difference(self, name: str, value: bool) -> np.ndarray:
        """One word row: bit *v* set iff some PO changes under the stuck-at."""
        base = self.output_words()
        forced = self.forced_outputs(name, value)
        return np.bitwise_or.reduce(base ^ forced, axis=0)

    # -------------------------------------------------------------- updates

    def recompute(self, changed: str) -> None:
        """Refresh *changed* (whose cover was rewritten) and its cone."""
        cone = self.cone(changed)
        obs_metrics.counter("sim.cone_nodes").inc(len(cone) + 1)
        for name in (changed, *cone):
            node = self.network.nodes[name]
            self.values[name] = eval_node(
                node.cover,
                [self.values[fanin] for fanin in node.fanins],
                self.num_vectors,
            )

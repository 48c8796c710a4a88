"""Technology-independent Boolean networks.

A :class:`LogicNetwork` is a DAG of *SOP nodes*: every internal node
computes a sum-of-products (an :class:`~repro.espresso.cube.Cover`) over its
fanin signals.  This is the classic MIS/SIS network model the multi-level
optimisation steps (kernel extraction, factoring) operate on, before
technology mapping turns the network into a cell netlist.

Signals are named strings; primary inputs are declared up front, outputs
point at signals.  Evaluation is dense: every signal's boolean function
over the primary-input space is computed in topological order, which at the
paper's scale (n <= 16 inputs) is exact and fast.  The evaluation methods
run on the packed bit-parallel engine (:mod:`repro.sim`) — 64 vectors per
uint64 word — and unpack at the boundary; ``evaluate_reference`` /
``evaluate_vectors_reference`` keep the byte-per-vector implementations as
the oracle for the engine's equivalence tests.

Structure queries (:meth:`LogicNetwork.topological_order`,
:meth:`LogicNetwork.fanouts`) are cached and invalidated by the mutating
methods; code that rewrites ``node.fanins`` directly must call
:meth:`LogicNetwork.invalidate_structure_caches`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.spec import FunctionSpec
from ..espresso.cube import Cover

__all__ = ["LogicNode", "LogicNetwork"]


@dataclass
class LogicNode:
    """One SOP node: ``name = cover(fanins)``.

    Attributes:
        name: output signal name.
        fanins: fanin signal names; cover variable ``j`` is ``fanins[j]``.
        cover: SOP over the fanins.
    """

    name: str
    fanins: list[str]
    cover: Cover

    def __post_init__(self) -> None:
        if self.cover.num_inputs != len(self.fanins):
            raise ValueError(
                f"node {self.name}: cover arity {self.cover.num_inputs} != "
                f"{len(self.fanins)} fanins"
            )

    @property
    def num_literals(self) -> int:
        """Literal count of the node's SOP."""
        return self.cover.num_literals


class LogicNetwork:
    """A DAG of SOP nodes over named signals."""

    def __init__(self, primary_inputs: list[str]):
        if len(set(primary_inputs)) != len(primary_inputs):
            raise ValueError("duplicate primary input names")
        self.primary_inputs: list[str] = list(primary_inputs)
        self.nodes: dict[str, LogicNode] = {}
        self.outputs: dict[str, str] = {}  # output name -> signal name
        self._counter = 0
        self._topo_cache: tuple[str, ...] | None = None
        self._fanout_cache: dict[str, tuple[str, ...]] | None = None

    # ------------------------------------------------------------- building

    @classmethod
    def from_covers(
        cls,
        input_names: list[str],
        covers: list[Cover],
        output_names: list[str],
    ) -> "LogicNetwork":
        """One SOP node per output, straight from two-level covers."""
        if len(covers) != len(output_names):
            raise ValueError("covers and output names differ in length")
        network = cls(list(input_names))
        for cover, out_name in zip(covers, output_names):
            node_name = network.fresh_name(f"n_{out_name}")
            network.add_node(node_name, list(input_names), cover)
            network.set_output(out_name, node_name)
        return network

    def fresh_name(self, stem: str = "n") -> str:
        """A signal name not yet used in the network."""
        while True:
            self._counter += 1
            name = f"{stem}_{self._counter}"
            if name not in self.nodes and name not in self.primary_inputs:
                return name

    def add_node(self, name: str, fanins: list[str], cover: Cover) -> LogicNode:
        """Add an SOP node; fanins must already exist.

        Raises:
            ValueError: on duplicate names or undefined fanins.
        """
        if name in self.nodes or name in self.primary_inputs:
            raise ValueError(f"signal {name!r} already defined")
        for fanin in fanins:
            if fanin not in self.nodes and fanin not in self.primary_inputs:
                raise ValueError(f"node {name!r}: undefined fanin {fanin!r}")
        node = LogicNode(name, list(fanins), cover)
        self.nodes[name] = node
        self.invalidate_structure_caches()
        return node

    def set_output(self, output_name: str, signal: str) -> None:
        """Declare a primary output pointing at *signal*."""
        if signal not in self.nodes and signal not in self.primary_inputs:
            raise ValueError(f"undefined signal {signal!r}")
        self.outputs[output_name] = signal
        self.invalidate_structure_caches()

    # ------------------------------------------------------------- structure

    def invalidate_structure_caches(self) -> None:
        """Drop the cached topological order and fanout map.

        The mutating methods call this automatically; callers that assign
        ``node.fanins`` directly (e.g. the divisor-extraction rewrites)
        must call it themselves.
        """
        self._topo_cache = None
        self._fanout_cache = None

    def topological_order(self) -> list[str]:
        """Node names in fanin-before-fanout order (cached).

        Raises:
            ValueError: if the network contains a cycle.
        """
        if self._topo_cache is None:
            order: list[str] = []
            state: dict[str, int] = {}

            def visit(name: str) -> None:
                if name in self.primary_inputs:
                    return
                mark = state.get(name, 0)
                if mark == 1:
                    raise ValueError(f"combinational cycle through {name!r}")
                if mark == 2:
                    return
                state[name] = 1
                for fanin in self.nodes[name].fanins:
                    visit(fanin)
                state[name] = 2
                order.append(name)

            for name in self.nodes:
                visit(name)
            self._topo_cache = tuple(order)
        return list(self._topo_cache)

    def fanouts(self) -> dict[str, list[str]]:
        """Map from signal name to the nodes that read it (cached)."""
        if self._fanout_cache is None:
            result: dict[str, list[str]] = {name: [] for name in self.primary_inputs}
            for name in self.nodes:
                result.setdefault(name, [])
            for node in self.nodes.values():
                for fanin in node.fanins:
                    result[fanin].append(node.name)
            self._fanout_cache = {
                name: tuple(readers) for name, readers in result.items()
            }
        return {name: list(readers) for name, readers in self._fanout_cache.items()}

    def fanout_cone(self, name: str) -> list[str]:
        """Transitive fanout of *name*, including *name*, in topological
        order.  *name* must be an internal node."""
        if name not in self.nodes:
            raise ValueError(f"not an internal node: {name!r}")
        fanouts = self.fanouts()
        cone = {name}
        stack = [name]
        while stack:
            for reader in fanouts[stack.pop()]:
                if reader not in cone:
                    cone.add(reader)
                    stack.append(reader)
        return [n for n in self.topological_order() if n in cone]

    def fanout_window(self, name: str, levels: int) -> set[str]:
        """BFS fanout neighbourhood of *name* up to *levels* levels deep,
        including *name*.

        This is the window the window-limited observability analysis
        (:func:`repro.synth.odc.node_flexibility` with ``window_levels``)
        judges flip propagation in; capped at the transitive fanout cone.

        Raises:
            ValueError: if *name* is not an internal node, or
                *levels* < 1.
        """
        if name not in self.nodes:
            raise ValueError(f"not an internal node: {name!r}")
        if levels < 1:
            raise ValueError(f"levels must be >= 1, got {levels}")
        fanouts = self.fanouts()
        window = {name}
        frontier = [name]
        for _ in range(levels):
            grown: list[str] = []
            for signal in frontier:
                for reader in fanouts[signal]:
                    if reader not in window:
                        window.add(reader)
                        grown.append(reader)
            if not grown:
                break
            frontier = grown
        return window

    def fanin_support(self, signals) -> set[str]:
        """All signals (internal nodes *and* primary inputs) that
        transitively feed any of *signals*, including the signals
        themselves."""
        support: set[str] = set()
        stack = list(signals)
        while stack:
            signal = stack.pop()
            if signal in support:
                continue
            support.add(signal)
            node = self.nodes.get(signal)
            if node is not None:
                stack.extend(node.fanins)
        return support

    def sweep_dangling(self) -> int:
        """Remove nodes that feed neither an output nor another node.

        Returns:
            Number of nodes removed.
        """
        removed = 0
        while True:
            fanouts = self.fanouts()
            live_outputs = set(self.outputs.values())
            dead = [
                name
                for name in self.nodes
                if not fanouts[name] and name not in live_outputs
            ]
            if not dead:
                return removed
            for name in dead:
                del self.nodes[name]
                removed += 1
            self.invalidate_structure_caches()

    @property
    def num_literals(self) -> int:
        """Total SOP literal count — the technology-independent cost."""
        return sum(node.num_literals for node in self.nodes.values())

    # ------------------------------------------------------------ evaluation

    def evaluate(self) -> dict[str, np.ndarray]:
        """Boolean function of every signal over the primary-input space.

        Runs on the packed bit-parallel engine and unpacks every signal;
        bit-identical to :meth:`evaluate_reference` (tested).
        """
        from ..sim import engine as sim_engine
        from ..sim import packed as sim_packed

        size = 1 << len(self.primary_inputs)
        packed = sim_engine.network_values(self)
        return {
            name: sim_packed.unpack_bool(words, size)
            for name, words in packed.items()
        }

    def evaluate_reference(self) -> dict[str, np.ndarray]:
        """Byte-per-vector reference implementation of :meth:`evaluate`.

        Kept as the oracle for the packed engine's randomized equivalence
        tests and the ``sim_packed_vs_bool`` benchmark baseline.
        """
        size = 1 << len(self.primary_inputs)
        idx = np.arange(size, dtype=np.int64)
        values: dict[str, np.ndarray] = {}
        for position, name in enumerate(self.primary_inputs):
            values[name] = ((idx >> position) & 1).astype(bool)
        for name in self.topological_order():
            node = self.nodes[name]
            local_table = node.cover.evaluate()
            pattern = np.zeros(size, dtype=np.int64)
            for position, fanin in enumerate(node.fanins):
                pattern |= values[fanin].astype(np.int64) << position
            values[name] = local_table[pattern]
        return values

    def evaluate_vectors_reference(self, inputs: np.ndarray) -> dict[str, np.ndarray]:
        """Evaluate every signal on explicit input vectors, byte per vector.

        The boolean reference that the packed engine
        (:func:`repro.sim.engine.network_values`) is tested against.

        Args:
            inputs: boolean array of shape ``(num_vectors, num_inputs)``;
                column ``j`` is input ``j``.
        """
        inputs = np.asarray(inputs, dtype=bool)
        if inputs.ndim != 2 or inputs.shape[1] != len(self.primary_inputs):
            raise ValueError(
                f"expected (*, {len(self.primary_inputs)}) inputs, got {inputs.shape}"
            )
        values: dict[str, np.ndarray] = {
            name: inputs[:, position]
            for position, name in enumerate(self.primary_inputs)
        }
        for name in self.topological_order():
            node = self.nodes[name]
            local_table = node.cover.evaluate()
            pattern = np.zeros(inputs.shape[0], dtype=np.int64)
            for position, fanin in enumerate(node.fanins):
                pattern |= values[fanin].astype(np.int64) << position
            values[name] = local_table[pattern]
        return values

    def output_table(self) -> np.ndarray:
        """Stacked output truth tables, ordered by output declaration."""
        from ..sim import engine as sim_engine
        from ..sim import packed as sim_packed

        size = 1 << len(self.primary_inputs)
        packed = sim_engine.network_values(self)
        return np.vstack(
            [sim_packed.unpack_bool(packed[sig], size) for sig in self.outputs.values()]
        )

    def to_spec(self, *, name: str = "network") -> FunctionSpec:
        """The fully specified function the network implements."""
        return FunctionSpec.from_truth_table(
            self.output_table(),
            name=name,
            input_names=tuple(self.primary_inputs),
            output_names=tuple(self.outputs.keys()),
        )

    def implements(self, spec: FunctionSpec) -> bool:
        """True if the network matches *spec* on *spec*'s care set."""
        return spec.equivalent_within_dc(self.to_spec())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LogicNetwork({len(self.primary_inputs)} PIs, {len(self.nodes)} nodes, "
            f"{len(self.outputs)} POs, {self.num_literals} literals)"
        )

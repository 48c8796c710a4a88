"""Subject graphs: the NAND2/INV decomposition the mapper covers.

The optimised Boolean network is lowered into a structurally hashed DAG of
inverters and 2-input NANDs (plus PI leaves and constants).  Lowering goes
through each node's factored form, so the subject graph inherits the
multi-level structure found by kernel extraction and factoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor import And, Expr, Lit, Or, good_factor
from .kernels import LiteralCoder
from .network import LogicNetwork

__all__ = ["SubjectGraph", "SubjectNode", "build_subject_graph"]


@dataclass(frozen=True)
class SubjectNode:
    """One subject-graph vertex.

    ``kind`` is ``"pi"`` (leaf, ``label`` holds the signal name),
    ``"const"`` (``label`` is ``"0"`` or ``"1"``), ``"inv"`` or ``"nand"``;
    ``fanins`` hold vertex ids.
    """

    kind: str
    fanins: tuple[int, ...] = ()
    label: str = ""


class SubjectGraph:
    """A structurally hashed INV/NAND2 DAG."""

    def __init__(self) -> None:
        self.nodes: list[SubjectNode] = []
        self._hash: dict[tuple, int] = {}
        self.outputs: dict[str, int] = {}

    # -------------------------------------------------------------- building

    def _intern(self, node: SubjectNode) -> int:
        key = (node.kind, node.fanins, node.label)
        existing = self._hash.get(key)
        if existing is not None:
            return existing
        self.nodes.append(node)
        ref = len(self.nodes) - 1
        self._hash[key] = ref
        return ref

    def pi(self, name: str) -> int:
        """The leaf vertex for primary input *name*."""
        return self._intern(SubjectNode("pi", (), name))

    def const(self, value: bool) -> int:
        """A constant vertex."""
        return self._intern(SubjectNode("const", (), "1" if value else "0"))

    def inv(self, ref: int) -> int:
        """Inverter, with double-inversion cancellation."""
        node = self.nodes[ref]
        if node.kind == "inv":
            return node.fanins[0]
        if node.kind == "const":
            return self.const(node.label == "0")
        return self._intern(SubjectNode("inv", (ref,)))

    def nand(self, left: int, right: int) -> int:
        """2-input NAND with commutative hashing and constant folding."""
        for a, b in ((left, right), (right, left)):
            node = self.nodes[a]
            if node.kind == "const":
                if node.label == "0":
                    return self.const(True)
                return self.inv(b)
        if left == right:
            return self.inv(left)
        lo, hi = (left, right) if left <= right else (right, left)
        return self._intern(SubjectNode("nand", (lo, hi)))

    def and_(self, left: int, right: int) -> int:
        """AND = INV(NAND)."""
        return self.inv(self.nand(left, right))

    def or_(self, left: int, right: int) -> int:
        """OR = NAND(INV, INV)."""
        return self.nand(self.inv(left), self.inv(right))

    def set_output(self, name: str, ref: int) -> None:
        """Declare primary output *name* to be vertex *ref*."""
        self.outputs[name] = ref

    # ------------------------------------------------------------- analysis

    def fanout_counts(self) -> np.ndarray:
        """Number of readers of each vertex (outputs count as readers)."""
        counts = np.zeros(len(self.nodes), dtype=np.int64)
        for node in self.nodes:
            for fanin in node.fanins:
                counts[fanin] += 1
        for ref in self.outputs.values():
            counts[ref] += 1
        return counts

    def topological_order(self) -> list[int]:
        """Vertex ids in fanin-first order (construction order suffices —
        vertices are interned only after their fanins exist)."""
        return list(range(len(self.nodes)))

    def evaluate(self, pi_values: dict[str, np.ndarray]) -> list[np.ndarray]:
        """Boolean arrays for every vertex given PI value arrays."""
        shape = next(iter(pi_values.values())).shape if pi_values else (1,)
        values: list[np.ndarray] = []
        for node in self.nodes:
            if node.kind == "pi":
                values.append(pi_values[node.label])
            elif node.kind == "const":
                values.append(np.full(shape, node.label == "1", dtype=bool))
            elif node.kind == "inv":
                values.append(~values[node.fanins[0]])
            else:
                values.append(~(values[node.fanins[0]] & values[node.fanins[1]]))
        return values

    def __len__(self) -> int:
        return len(self.nodes)


def _lower_expr(
    graph: SubjectGraph, expr: Expr, signal_refs: dict[str, int]
) -> int:
    """Lower a factored form to subject vertices (balanced gate trees)."""
    if isinstance(expr, Lit):
        ref = signal_refs[expr.signal]
        return ref if expr.polarity else graph.inv(ref)
    assert isinstance(expr, (And, Or))
    combine = graph.and_ if isinstance(expr, And) else graph.or_
    refs = [_lower_expr(graph, child, signal_refs) for child in expr.children]
    # Balanced reduction keeps the pre-mapping depth logarithmic.
    while len(refs) > 1:
        paired = [
            combine(refs[i], refs[i + 1]) if i + 1 < len(refs) else refs[i]
            for i in range(0, len(refs), 2)
        ]
        refs = paired
    return refs[0]


def build_subject_graph(network: LogicNetwork) -> SubjectGraph:
    """Lower an optimised network to a structurally hashed subject graph.

    Every node's SOP is factored (:func:`~repro.synth.factor.good_factor`)
    and lowered over its fanins' vertices; constant covers become constant
    vertices.
    """
    graph = SubjectGraph()
    coder = LiteralCoder()
    refs: dict[str, int] = {}
    for name in network.primary_inputs:
        refs[name] = graph.pi(name)
    for name in network.topological_order():
        node = network.nodes[name]
        if node.cover.num_cubes == 0:
            refs[name] = graph.const(False)
            continue
        cubes = coder.encode(node.cover, node.fanins)
        if 0 in cubes:
            refs[name] = graph.const(True)
            continue
        expr = good_factor(cubes, coder)
        refs[name] = _lower_expr(graph, expr, refs)
    for out_name, signal in network.outputs.items():
        graph.set_output(out_name, refs[signal])
    return graph

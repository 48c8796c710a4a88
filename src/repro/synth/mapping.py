"""Tree-covering technology mapping.

The classic DAGON/SIS approach: the subject graph is partitioned into
fanout-free cones at *roots* (multi-fanout vertices and primary outputs);
within each cone, dynamic programming picks the cheapest cell match at
every vertex.  Matches are found by walking cell pattern trees against the
subject DAG with commutative NAND matching and consistent leaf binding
(leaf-DAG patterns like XOR bind repeated leaves to the same vertex).

The DP minimises total cell area (the power-optimisation proxy; Sec. 3
notes area- and power-optimised implementations are very similar), with
estimated arrival time as the tiebreak.  The delay objective sizes the
critical path of this covering afterwards (see
:func:`repro.synth.timing.upsize_critical`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .library import Cell, Library
from .netlist import GateInstance, MappedNetlist
from .subject import SubjectGraph

__all__ = ["map_graph", "find_matches"]

_EST_LOAD = 2.0
"""Load estimate behind the arrival tiebreak (actual loads need the mapping)."""


def _match_pattern(
    graph: SubjectGraph,
    ref: int,
    pattern: tuple,
    is_root: int | None,
    roots: set[int],
    binding: dict[str, int],
) -> bool:
    """Try to match *pattern* rooted at vertex *ref* (extends *binding*)."""
    kind = pattern[0]
    if kind == "var":
        name = pattern[1]
        bound = binding.get(name)
        if bound is None:
            binding[name] = ref
            return True
        return bound == ref
    # Internal pattern nodes may not cross a cone boundary: any matched
    # non-leaf vertex other than the match root must be single-fanout.
    if ref != is_root and ref in roots:
        return False
    node = graph.nodes[ref]
    if kind == "inv":
        if node.kind != "inv":
            return False
        return _match_pattern(graph, node.fanins[0], pattern[1], None, roots, binding)
    if kind == "nand":
        if node.kind != "nand":
            return False
        left, right = node.fanins
        saved = dict(binding)
        if _match_pattern(
            graph, left, pattern[1], None, roots, binding
        ) and _match_pattern(graph, right, pattern[2], None, roots, binding):
            return True
        binding.clear()
        binding.update(saved)
        if _match_pattern(
            graph, right, pattern[1], None, roots, binding
        ) and _match_pattern(graph, left, pattern[2], None, roots, binding):
            return True
        binding.clear()
        binding.update(saved)
        return False
    raise ValueError(f"bad pattern node {pattern!r}")


def find_matches(
    graph: SubjectGraph, ref: int, library: Library, roots: set[int]
) -> list[tuple[Cell, dict[str, int]]]:
    """All (cell, leaf-binding) matches rooted at vertex *ref*."""
    matches = []
    node = graph.nodes[ref]
    if node.kind not in ("inv", "nand"):
        return matches
    for cell in library.cells:
        binding: dict[str, int] = {}
        if _match_pattern(graph, ref, cell.pattern, ref, roots, binding):
            matches.append((cell, dict(binding)))
    return matches


@dataclass
class _Choice:
    cost: float
    arrival: float
    cell: Cell
    binding: dict[str, int]


def map_graph(graph: SubjectGraph, library: Library) -> MappedNetlist:
    """Cover the subject graph with library cells at minimum area.

    Args:
        graph: the INV/NAND2 subject graph.
        library: the target cell library.

    Returns:
        A topologically ordered :class:`MappedNetlist`.

    Raises:
        ValueError: on an uncoverable vertex (which would indicate a
            library without INV/NAND2 base cells).
    """
    fanouts = graph.fanout_counts()
    roots = {
        ref
        for ref, node in enumerate(graph.nodes)
        if node.kind in ("inv", "nand") and fanouts[ref] > 1
    }
    roots.update(
        ref for ref in graph.outputs.values() if graph.nodes[ref].kind in ("inv", "nand")
    )

    choices: dict[int, _Choice] = {}

    def leaf_cost(ref: int) -> float:
        node = graph.nodes[ref]
        if node.kind in ("pi", "const") or ref in roots:
            return 0.0
        return choices[ref].cost

    def leaf_arrival(ref: int) -> float:
        node = graph.nodes[ref]
        if node.kind in ("pi", "const"):
            return 0.0
        return choices[ref].arrival

    for ref in graph.topological_order():
        node = graph.nodes[ref]
        if node.kind not in ("inv", "nand"):
            continue
        best: _Choice | None = None
        for cell, binding in find_matches(graph, ref, library, roots):
            leaves = [binding[pin] for pin in cell.pins]
            cost = cell.area + sum(leaf_cost(leaf) for leaf in leaves)
            arrival = cell.intrinsic + cell.resistance * _EST_LOAD + max(
                (leaf_arrival(leaf) for leaf in leaves), default=0.0
            )
            if best is None or (cost, arrival) < (best.cost, best.arrival):
                best = _Choice(cost, arrival, cell, binding)
        if best is None:
            raise ValueError(f"vertex {ref} has no match in the library")
        choices[ref] = best

    netlist = MappedNetlist(library, [n.label for n in graph.nodes if n.kind == "pi"])
    emitted: dict[int, str] = {}

    def emit(ref: int) -> str:
        node = graph.nodes[ref]
        if node.kind == "pi":
            return node.label
        if node.kind == "const":
            name = f"const{node.label}"
            netlist.constants[name] = node.label == "1"
            return name
        cached = emitted.get(ref)
        if cached is not None:
            return cached
        choice = choices[ref]
        inputs = [emit(choice.binding[pin]) for pin in choice.cell.pins]
        name = f"t{ref}"
        emitted[ref] = name
        netlist.gates.append(GateInstance(choice.cell, name, inputs))
        return name

    for out_name, ref in graph.outputs.items():
        netlist.outputs[out_name] = emit(ref)
    return netlist

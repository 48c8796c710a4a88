"""Multi-level logic optimisation: shared divisor extraction.

The "Design Compiler" stage of the reproduction's flow.  Starting from the
two-level (per-output) network, it repeatedly extracts the best-value
shared algebraic divisor — a kernel or a cube — into a new node and
re-expresses every divisible node through it, shrinking total literal
count.  This is the MIS/SIS ``gkx``/``gcx`` greedy loop; factoring of the
final nodes happens later, during subject-graph construction.

Both loops are incremental.  One extraction adds one node and rewrites
only the divisor's users, so each call keeps the algebraic view of every
node (cube set, literal set, kernels, candidate values) across iterations
and recomputes it only for the nodes a step rewrote or added.  The greedy
choices, their tie-breaks and the node names are exactly those of
rebuilding everything per iteration.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict

from .kernels import (
    CubeSet,
    Literal,
    algebraic_divide,
    cover_to_cubes,
    cube_key,
    cube_set_key,
    cube_set_literals,
    cubes_to_cover,
    kernels,
)
from .network import LogicNetwork

__all__ = ["extract_kernels", "extract_cubes", "optimize_network"]

_MAX_EXTRACTIONS = 200
"""Divisor nodes each extraction loop may create at most."""


def _node_cubes(network: LogicNetwork, name: str) -> CubeSet:
    node = network.nodes[name]
    return cover_to_cubes(node.cover, node.fanins)


def _rewrite_node(
    network: LogicNetwork,
    name: str,
    quotient: CubeSet,
    remainder: CubeSet,
    divisor_signal: str,
) -> CubeSet:
    """Replace node *name* with ``quotient * divisor_signal + remainder``.

    Returns:
        The node's new cube set.
    """
    new_cubes = frozenset(
        {cube | {(divisor_signal, True)} for cube in quotient} | set(remainder)
    )
    signals = sorted({literal[0] for cube in new_cubes for literal in cube})
    cover = cubes_to_cover(new_cubes, signals)
    node = network.nodes[name]
    node.fanins = signals
    node.cover = cover
    # Direct fanin rewrite: the cached topological order / fanout map are
    # stale now (add_node/set_output invalidate automatically, this does
    # not go through them).
    network.invalidate_structure_caches()
    return new_cubes


def _install_divisor(network: LogicNetwork, divisor: CubeSet, stem: str) -> str:
    signals = sorted({literal[0] for cube in divisor for literal in cube})
    cover = cubes_to_cover(divisor, signals)
    name = network.fresh_name(stem)
    network.add_node(name, signals, cover)
    return name


class _AlgebraicNodes:
    """The network's nodes as cube sets, kept in step with the rewrites.

    ``cubes[name]`` is a node's cube set and ``literals[name]`` its literal
    set; ``readers[literal]`` holds the nodes whose literal set contains
    *literal*, and ``position[name]`` a node's place in network order.
    """

    def __init__(self, network: LogicNetwork):
        self.cubes: dict[str, CubeSet] = {}
        self.literals: dict[str, frozenset] = {}
        self.position: dict[str, int] = {}
        self.readers: defaultdict[Literal, set[str]] = defaultdict(set)
        for name in network.nodes:
            self.update(name, _node_cubes(network, name))

    def update(self, name: str, cubes: CubeSet) -> tuple[CubeSet, frozenset]:
        """Record *cubes* as node *name*'s expression (a new node goes last).

        Returns:
            The node's previous cube set and literal set (empty if new).
        """
        old_cubes = self.cubes.get(name, frozenset())
        old_literals = self.literals.get(name, frozenset())
        literals = frozenset(literal for cube in cubes for literal in cube)
        for literal in old_literals - literals:
            self.readers[literal].discard(name)
        for literal in literals - old_literals:
            self.readers[literal].add(name)
        self.position.setdefault(name, len(self.position))
        self.cubes[name] = cubes
        self.literals[name] = literals
        return old_cubes, old_literals

    def covering(self, literals) -> list[str]:
        """Nodes whose literal set contains every one of the (non-empty)
        *literals*, in network order."""
        groups = sorted((self.readers[literal] for literal in literals), key=len)
        names = groups[0].intersection(*groups[1:])
        return sorted(names, key=self.position.__getitem__)


def _divide_node(cubes: CubeSet, kernel: CubeSet) -> tuple | None:
    """``(quotient, remainder, literals saved)`` when dividing *kernel* into
    *cubes* shrinks them, else None."""
    quotient, remainder = algebraic_divide(cubes, kernel)
    if not quotient:
        return None
    old_literals = cube_set_literals(cubes)
    new_literals = (
        cube_set_literals(quotient) + len(quotient) + cube_set_literals(remainder)
    )
    if new_literals < old_literals:
        return quotient, remainder, old_literals - new_literals
    return None


def extract_kernels(network: LogicNetwork) -> int:
    """Greedy shared-kernel extraction.

    Each iteration ranks the kernels of every node by intrinsic value,
    divides the most promising ones into the nodes and extracts the one
    saving the most literals.  Node kernels are recomputed only for the
    nodes an extraction rewrote or added, and a kernel's division into a
    node is kept until that node is rewritten.

    Returns:
        Number of divisor nodes created.
    """
    nodes = _AlgebraicNodes(network)
    node_kernels: dict[str, set[CubeSet]] = {}
    # Candidates: the number of nodes each kernel comes from, and its rank
    # key.  Score ties are broken canonically (cube_set_key), not by set
    # iteration order, so extraction is hash-seed independent.
    refs: Counter = Counter()
    rank: dict[CubeSet, tuple] = {}
    # Per kernel tried so far: its literal set, the nodes it shrinks (name
    # -> _divide_node result) and the nodes to divide again before its next
    # evaluation — those rewritten or added since whose literal set
    # contains the kernel's literals (no other node can be divided by it).
    tried: dict[CubeSet, tuple[frozenset, dict[str, tuple], set[str]]] = {}

    def refresh(name: str, old_literals: frozenset) -> None:
        """Bring the candidates and tried kernels up to date with node
        *name*'s new cube set (its literal set was *old_literals*)."""
        literals = nodes.literals[name]
        for kernel_literals, uses, stale in tried.values():
            if kernel_literals <= old_literals:
                uses.pop(name, None)
            if kernel_literals <= literals:
                stale.add(name)
        cubes = nodes.cubes[name]
        found = kernels(cubes, max_kernels=50) if len(cubes) >= 2 else set()
        previous = node_kernels.get(name, set())
        node_kernels[name] = found
        for kernel in previous - found:
            refs[kernel] -= 1
            if not refs[kernel]:
                del refs[kernel], rank[kernel]
                tried.pop(kernel, None)
        for kernel in found - previous:
            if not refs[kernel]:
                rank[kernel] = (
                    -(len(kernel) - 1) * (cube_set_literals(kernel) - 1),
                    cube_set_key(kernel),
                )
            refs[kernel] += 1

    def evaluate(kernel: CubeSet) -> tuple[dict[str, tuple], int]:
        """The nodes *kernel* shrinks, and its extraction's value: literals
        saved minus the kernel's own."""
        if kernel not in tried:
            kernel_literals = frozenset(lit for cube in kernel for lit in cube)
            tried[kernel] = (kernel_literals, {}, set(nodes.covering(kernel_literals)))
        _, uses, stale = tried[kernel]
        for name in stale:
            division = _divide_node(nodes.cubes[name], kernel)
            if division is not None:
                uses[name] = division
        stale.clear()
        saved = sum(division[2] for division in uses.values())
        return uses, saved - cube_set_literals(kernel)

    for name in network.nodes:
        refresh(name, frozenset())
    created = 0
    for _ in range(_MAX_EXTRACTIONS):
        if not rank:
            break
        # Only the most promising candidates are tried against the nodes
        # (full cross-division is quadratic).
        best_kernel: CubeSet | None = None
        best_value = 0
        for kernel in heapq.nsmallest(60, rank, key=rank.__getitem__):
            uses, value = evaluate(kernel)
            if uses and value > best_value:
                best_kernel, best_value = kernel, value
        if best_kernel is None:
            break
        _, uses, _ = tried[best_kernel]
        divisor_signal = _install_divisor(network, best_kernel, "k")
        changed = [(divisor_signal, best_kernel)] + [
            (name, _rewrite_node(network, name, quotient, remainder, divisor_signal))
            for name, (quotient, remainder, _) in sorted(
                uses.items(), key=lambda item: nodes.position[item[0]]
            )
        ]
        for name, cubes in changed:
            _, old_literals = nodes.update(name, cubes)
            refresh(name, old_literals)
        created += 1
    return created


def extract_cubes(network: LogicNetwork) -> int:
    """Greedy shared-cube extraction (common sub-cubes across nodes).

    The occurrence count of every 2-literal sub-cube is kept across
    iterations and updated from the cubes each rewrite removed and added.

    Returns:
        Number of divisor nodes created.
    """
    nodes = _AlgebraicNodes(network)
    counts: Counter = Counter()
    for cubes in nodes.cubes.values():
        _count_pairs(counts, cubes, 1)
    created = 0
    for _ in range(_MAX_EXTRACTIONS):
        # Extracting a 2-literal cube saves one literal per occurrence
        # beyond the new node's own two literals: the most frequent pair
        # wins if it occurs more than twice, ties going to the smallest
        # cube_key.
        occurrences = max(counts.values(), default=0)
        if occurrences <= 2:
            break
        best_cube = min(
            (cube for cube, count in counts.items() if count == occurrences),
            key=cube_key,
        )
        divisor = frozenset({best_cube})
        users = nodes.covering(best_cube)
        divisor_signal = _install_divisor(network, divisor, "c")
        changed = [(divisor_signal, divisor)]
        for name in users:
            quotient, remainder = algebraic_divide(nodes.cubes[name], divisor)
            if quotient:
                changed.append(
                    (name, _rewrite_node(network, name, quotient, remainder, divisor_signal))
                )
        for name, cubes in changed:
            old_cubes, _ = nodes.update(name, cubes)
            _count_pairs(counts, old_cubes - cubes, -1)
            _count_pairs(counts, cubes - old_cubes, 1)
        created += 1
    return created


def _count_pairs(counts: Counter, cubes: CubeSet, delta: int) -> None:
    """Add *delta* to the count of every 2-literal sub-cube of *cubes*."""
    for cube in cubes:
        if len(cube) >= 2:
            for pair in _subcubes_of_size_two(cube):
                counts[pair] += delta
                if not counts[pair]:
                    del counts[pair]


def _subcubes_of_size_two(cube: frozenset) -> list[frozenset]:
    literals = sorted(cube)
    return [
        frozenset({literals[i], literals[j]})
        for i in range(len(literals))
        for j in range(i + 1, len(literals))
    ]


def optimize_network(network: LogicNetwork) -> LogicNetwork:
    """The full technology-independent script: kernels, cubes, cleanup."""
    extract_kernels(network)
    extract_cubes(network)
    network.sweep_dangling()
    return network

"""Multi-level logic optimisation: shared divisor extraction.

The "Design Compiler" stage of the reproduction's flow.  Starting from the
two-level (per-output) network, it repeatedly extracts the best-value
shared algebraic divisor — a kernel or a cube — into a new node and
re-expresses every divisible node through it, shrinking total literal
count.  This is the MIS/SIS ``gkx``/``gcx`` greedy loop; factoring of the
final nodes happens later, during subject-graph construction.

Both loops are incremental.  One extraction adds one node and rewrites
only the divisor's users, so each call keeps the algebraic view of every
node (cube set, literal counts, kernels, candidate values) across
iterations and recomputes it only for the cubes a step rewrote or added.
A rewritten node's fanins and cover are written once, when the loop ends.
The greedy choices, their tie-breaks and the node names are exactly those
of rebuilding everything per iteration.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from itertools import chain, combinations

from .kernels import (
    CubeSet,
    Literal,
    algebraic_divide,
    cover_to_cubes,
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


def _rewrite_node(quotient: CubeSet, remainder: CubeSet, divisor_signal: str) -> CubeSet:
    """The cube set ``quotient * divisor_signal + remainder``."""
    return frozenset(
        {cube | {(divisor_signal, True)} for cube in quotient} | set(remainder)
    )


def _write_nodes(network: LogicNetwork, nodes: _AlgebraicNodes, names: Iterable[str]) -> None:
    """Give each node of *names*, in network order, the fanins and cover of
    its cube set."""
    for name in sorted(names, key=nodes.position.__getitem__):
        cubes = nodes.cubes[name]
        signals = sorted({literal[0] for cube in cubes for literal in cube})
        node = network.nodes[name]
        node.fanins = signals
        node.cover = cubes_to_cover(cubes, signals)
    # Direct fanin rewrite: the cached topological order / fanout map are
    # stale now (add_node/set_output invalidate automatically, this does
    # not go through them).
    network.invalidate_structure_caches()


def _install_divisor(network: LogicNetwork, divisor: CubeSet, stem: str) -> str:
    signals = sorted({literal[0] for cube in divisor for literal in cube})
    cover = cubes_to_cover(divisor, signals)
    name = network.fresh_name(stem)
    network.add_node(name, signals, cover)
    return name


class _AlgebraicNodes:
    """The network's nodes as cube sets, kept in step with the rewrites.

    ``cubes[name]`` is a node's cube set, ``counts[name]`` the number of
    its cubes holding each literal and ``literals[name]`` its literal set;
    ``readers[literal]`` holds the nodes whose literal set contains
    *literal*, and ``position[name]`` a node's place in network order.
    """

    def __init__(self, network: LogicNetwork):
        self.cubes: dict[str, CubeSet] = {}
        self.counts: dict[str, Counter] = {}
        self.literals: dict[str, frozenset] = {}
        self.position: dict[str, int] = {}
        self.readers: defaultdict[Literal, set[str]] = defaultdict(set)
        for name in network.nodes:
            self.update(name, _node_cubes(network, name))

    def update(self, name: str, cubes: CubeSet) -> tuple[CubeSet, CubeSet, frozenset]:
        """Record *cubes* as node *name*'s expression (a new node goes last).

        Returns:
            The cubes the node lost, the cubes it gained and its previous
            literal set (empty if new).
        """
        old_cubes = self.cubes.get(name, frozenset())
        old_literals = self.literals.get(name, frozenset())
        removed, added = old_cubes - cubes, cubes - old_cubes
        counts = self.counts.setdefault(name, Counter())
        counts.update(chain.from_iterable(added))
        for literal, count in Counter(chain.from_iterable(removed)).items():
            counts[literal] -= count
            if not counts[literal]:
                del counts[literal]
        literals = frozenset(counts)
        for literal in old_literals - literals:
            self.readers[literal].discard(name)
        for literal in literals - old_literals:
            self.readers[literal].add(name)
        self.position.setdefault(name, len(self.position))
        self.cubes[name] = cubes
        self.literals[name] = literals
        return removed, added, old_literals

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
    rewritten: set[str] = set()
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
            (name, _rewrite_node(quotient, remainder, divisor_signal))
            for name, (quotient, remainder, _) in sorted(
                uses.items(), key=lambda item: nodes.position[item[0]]
            )
        ]
        rewritten.update(uses)
        for name, cubes in changed:
            _, _, old_literals = nodes.update(name, cubes)
            refresh(name, old_literals)
        created += 1
    _write_nodes(network, nodes, rewritten)
    return created


def extract_cubes(network: LogicNetwork) -> int:
    """Greedy shared-cube extraction (common sub-cubes across nodes).

    The occurrence count of every 2-literal sub-cube is kept across
    iterations and updated from the cubes each rewrite removed and added.

    Returns:
        Number of divisor nodes created.
    """
    nodes = _AlgebraicNodes(network)
    counts = Counter(_pairs(chain.from_iterable(nodes.cubes.values())))
    # Extracting a 2-literal cube saves one literal per occurrence beyond
    # the new node's own two literals: the most frequent pair wins if it
    # occurs more than twice, ties going to the smallest cube_key, which
    # is the pair itself.  The heap holds (-count, pair) for every pair
    # counted more than twice, pushed again whenever its count moves;
    # entries whose count has moved on are stale and dropped at the top.
    heap = [(-count, pair) for pair, count in counts.items() if count > 2]
    heapq.heapify(heap)
    rewritten: set[str] = set()
    created = 0
    for _ in range(_MAX_EXTRACTIONS):
        while heap and counts[heap[0][1]] != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        best_cube = frozenset(heap[0][1])
        divisor = frozenset({best_cube})
        users = nodes.covering(best_cube)
        divisor_signal = _install_divisor(network, divisor, "c")
        changed = [(divisor_signal, divisor)]
        for name in users:
            quotient, remainder = algebraic_divide(nodes.cubes[name], divisor)
            if quotient:
                changed.append((name, _rewrite_node(quotient, remainder, divisor_signal)))
                rewritten.add(name)
        moved: Counter = Counter()
        for name, cubes in changed:
            removed, added, _ = nodes.update(name, cubes)
            moved.update(_pairs(added))
            moved.subtract(Counter(_pairs(removed)))
        for pair, delta in moved.items():
            if delta:
                count = counts[pair] + delta
                if count:
                    counts[pair] = count
                else:
                    del counts[pair]
                if count > 2:
                    heapq.heappush(heap, (-count, pair))
        created += 1
    _write_nodes(network, nodes, rewritten)
    return created


def _pairs(cubes: Iterable[frozenset]) -> Iterator[tuple[Literal, Literal]]:
    """Every 2-literal sub-cube of *cubes*, as its sorted literal pair."""
    return (pair for cube in cubes for pair in combinations(sorted(cube), 2))


def optimize_network(network: LogicNetwork) -> LogicNetwork:
    """The full technology-independent script: kernels, cubes, cleanup."""
    extract_kernels(network)
    extract_cubes(network)
    network.sweep_dangling()
    return network

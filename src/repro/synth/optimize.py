"""Multi-level logic optimisation: shared divisor extraction.

The "Design Compiler" stage of the reproduction's flow.  Starting from the
two-level (per-output) network, it repeatedly extracts the best-value
shared algebraic divisor — a kernel or a cube — into a new node and
re-expresses every divisible node through it, shrinking total literal
count.  This is the MIS/SIS ``gkx``/``gcx`` greedy loop; factoring of the
final nodes happens later, during subject-graph construction.

Both loops are incremental.  One extraction adds one node and rewrites
only the divisor's users, so each call keeps the algebraic view of every
node (cube set, literal set, kernels, candidate values) across
iterations and recomputes it only for the cubes a step rewrote or added.
The kernel candidates stay in one sorted list of rank entries, so the
most promising are its head.  A rewritten node's fanins and cover are
written once, when the loop ends.  The greedy choices, their tie-breaks
and the node names are exactly those of rebuilding everything per
iteration.

Each call codes the network's literals with one
:class:`~repro.synth.kernels.LiteralCoder`: cubes, literal sets and
2-literal pairs are ints, and names are decoded only to write a cover, to
name a divisor's fanins and to break ties by the canonical keys.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from itertools import chain, combinations

from .kernels import (
    CubeSet,
    LiteralCoder,
    algebraic_divide,
    bit_masks,
    cube_set_literals,
    cubes_to_cover,
    kernels,
)
from .network import LogicNetwork

__all__ = ["extract_kernels", "extract_cubes", "optimize_network"]

_MAX_EXTRACTIONS = 200
"""Divisor nodes each extraction loop may create at most."""


def _rewrite_node(quotient: CubeSet, remainder: CubeSet, divisor_code: int) -> CubeSet:
    """The cube set ``quotient * divisor + remainder``, where *divisor_code*
    is the divisor signal's one-literal cube."""
    return frozenset([cube | divisor_code for cube in quotient]).union(remainder)


def _write_nodes(network: LogicNetwork, nodes: _AlgebraicNodes, names: Iterable[str]) -> None:
    """Give each node of *names*, in network order, the fanins and cover of
    its cube set."""
    coder = nodes.coder
    for name in sorted(names, key=nodes.position.__getitem__):
        cubes = nodes.cubes[name]
        signals = coder.signals(cubes)
        node = network.nodes[name]
        node.fanins = signals
        node.cover = cubes_to_cover(cubes, signals, coder)
    # Direct fanin rewrite: the cached topological order / fanout map are
    # stale now (add_node/set_output invalidate automatically, this does
    # not go through them).
    network.invalidate_structure_caches()


def _install_divisor(
    network: LogicNetwork, coder: LiteralCoder, divisor: CubeSet, stem: str
) -> tuple[str, int]:
    """Add *divisor* as a fresh node; its name and its one-literal cube."""
    signals = coder.signals(divisor)
    cover = cubes_to_cover(divisor, signals, coder)
    name = network.fresh_name(stem)
    network.add_node(name, signals, cover)
    return name, coder.code((name, True))


class _AlgebraicNodes:
    """The network's nodes as cube sets, kept in step with the rewrites.

    ``coder`` codes the literals, ``cubes[name]`` is a node's cube set and
    ``literals[name]`` its literal set (the union of its cubes);
    ``readers[mask]`` holds the nodes whose literal set contains the
    one-literal cube *mask*, and ``position[name]`` a node's place in
    network order.
    """

    def __init__(self, network: LogicNetwork):
        self.coder = LiteralCoder()
        self.cubes: dict[str, CubeSet] = {}
        self.literals: dict[str, int] = {}
        self.position: dict[str, int] = {}
        self.readers: defaultdict[int, set[str]] = defaultdict(set)
        for name, node in network.nodes.items():
            self.update(name, self.coder.encode(node.cover, node.fanins))

    def update(self, name: str, cubes: CubeSet) -> tuple[CubeSet, CubeSet, int]:
        """Record *cubes* as node *name*'s expression (a new node goes last).

        Returns:
            The cubes the node lost, the cubes it gained and its previous
            literal set (0 if new).
        """
        old_cubes = self.cubes.get(name, frozenset())
        old_literals = self.literals.get(name, 0)
        literals = 0
        for cube in cubes:
            literals |= cube
        for mask in bit_masks(old_literals & ~literals):
            self.readers[mask].discard(name)
        for mask in bit_masks(literals & ~old_literals):
            self.readers[mask].add(name)
        self.position.setdefault(name, len(self.position))
        self.cubes[name] = cubes
        self.literals[name] = literals
        return old_cubes - cubes, cubes - old_cubes, old_literals

    def covering(self, literals: int) -> list[str]:
        """Nodes whose literal set contains the (non-empty) cube *literals*,
        in network order."""
        groups = sorted((self.readers[mask] for mask in bit_masks(literals)), key=len)
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
    coder = nodes.coder
    node_kernels: dict[str, set[CubeSet]] = {}
    # Candidates: the number of nodes each kernel comes from, its rank
    # entry (negated intrinsic value, cube_set_key, kernel) and every rank
    # entry in sorted order.  Score ties are broken canonically
    # (cube_set_key), not by set iteration order, so extraction is
    # hash-seed independent.
    refs: Counter = Counter()
    rank: dict[CubeSet, tuple] = {}
    ranked: list[tuple] = []
    # Per kernel tried so far: its literal set, the nodes it shrinks (name
    # -> _divide_node result), its extraction value (the literals those
    # divisions save minus the kernel's own) and the nodes to divide again
    # before its next evaluation — those rewritten or added since whose
    # literal set contains the kernel's literals (no other node can be
    # divided by it).  A node leaves the uses when it is rewritten, before
    # it can turn stale, so the two never share a name.
    tried: dict[CubeSet, list] = {}

    def refresh(name: str, old_literals: int) -> None:
        """Bring the candidates and tried kernels up to date with node
        *name*'s new cube set (its literal set was *old_literals*)."""
        literals = nodes.literals[name]
        for entry in tried.values():
            kernel_literals, uses, _, stale = entry
            if kernel_literals & old_literals == kernel_literals:
                division = uses.pop(name, None)
                if division is not None:
                    entry[2] -= division[2]
            if kernel_literals & literals == kernel_literals:
                stale.add(name)
        cubes = nodes.cubes[name]
        found = kernels(cubes, coder, max_kernels=50) if len(cubes) >= 2 else set()
        previous = node_kernels.get(name, set())
        node_kernels[name] = found
        for kernel in previous - found:
            refs[kernel] -= 1
            if not refs[kernel]:
                del refs[kernel], ranked[bisect_left(ranked, rank.pop(kernel))]
                tried.pop(kernel, None)
        for kernel in found - previous:
            if not refs[kernel]:
                rank[kernel] = entry = (
                    -(len(kernel) - 1) * (cube_set_literals(kernel) - 1),
                    coder.cube_set_key(kernel),
                    kernel,
                )
                insort(ranked, entry)
            refs[kernel] += 1

    def evaluate(kernel: CubeSet) -> tuple[dict[str, tuple], int]:
        """The nodes *kernel* shrinks, and its extraction's value: literals
        saved minus the kernel's own."""
        entry = tried.get(kernel)
        if entry is None:
            kernel_literals = 0
            for cube in kernel:
                kernel_literals |= cube
            entry = tried[kernel] = [
                kernel_literals, {}, -cube_set_literals(kernel),
                set(nodes.covering(kernel_literals)),
            ]
        _, uses, _, stale = entry
        for name in stale:
            division = _divide_node(nodes.cubes[name], kernel)
            if division is not None:
                uses[name] = division
                entry[2] += division[2]
        stale.clear()
        return uses, entry[2]

    for name in network.nodes:
        refresh(name, 0)
    rewritten: set[str] = set()
    created = 0
    for _ in range(_MAX_EXTRACTIONS):
        if not rank:
            break
        # Only the most promising candidates are tried against the nodes
        # (full cross-division is quadratic).
        best_kernel: CubeSet | None = None
        best_value = 0
        for *_, kernel in ranked[:60]:
            uses, value = evaluate(kernel)
            if uses and value > best_value:
                best_kernel, best_value = kernel, value
        if best_kernel is None:
            break
        uses = tried[best_kernel][1]
        divisor_signal, divisor_code = _install_divisor(network, coder, best_kernel, "k")
        changed = [(divisor_signal, best_kernel)] + [
            (name, _rewrite_node(quotient, remainder, divisor_code))
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
    coder = nodes.coder
    counts = Counter(_pairs(chain.from_iterable(nodes.cubes.values())))
    # Extracting a 2-literal cube saves one literal per occurrence beyond
    # the new node's own two literals: the most frequent pair wins if it
    # occurs more than twice, ties going to the smallest cube_key.  The
    # heap holds (-count, cube_key, pair) for every pair counted more than
    # twice, pushed again whenever its count moves; entries whose count
    # has moved on are stale and dropped at the top.
    heap = [
        (-count, coder.cube_key(pair), pair)
        for pair, count in counts.items()
        if count > 2
    ]
    heapq.heapify(heap)
    rewritten: set[str] = set()
    created = 0
    for _ in range(_MAX_EXTRACTIONS):
        while heap and counts[heap[0][2]] != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        best_cube = heap[0][2]
        divisor = frozenset({best_cube})
        users = nodes.covering(best_cube)
        divisor_signal, divisor_code = _install_divisor(network, coder, divisor, "c")
        changed = [(divisor_signal, divisor)]
        for name in users:
            quotient, remainder = algebraic_divide(nodes.cubes[name], divisor)
            if quotient:
                changed.append((name, _rewrite_node(quotient, remainder, divisor_code)))
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
                    heapq.heappush(heap, (-count, coder.cube_key(pair), pair))
        created += 1
    _write_nodes(network, nodes, rewritten)
    return created


def _pairs(cubes: Iterable[int]) -> Iterator[int]:
    """Every 2-literal sub-cube of *cubes*."""
    return (
        first | second
        for cube in cubes
        for first, second in combinations(bit_masks(cube), 2)
    )


def optimize_network(network: LogicNetwork) -> LogicNetwork:
    """The full technology-independent script: kernels, cubes, cleanup."""
    extract_kernels(network)
    extract_cubes(network)
    network.sweep_dangling()
    return network

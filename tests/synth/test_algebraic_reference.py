"""The int-coded algebraic layer against verbatim copies of the name-coded one.

``reference_*`` below are the set-of-``(name, polarity)``-tuples
implementations the int-coded layer replaced, copied verbatim and
renamed: kernel enumeration, division, the canonical keys, both greedy
extraction loops and GOOD_FACTOR.  Hypothesis draws expressions and
networks whose signal names straddle the name order (``c_1``, ``k_9``,
``k_10``, ``x0``, ``x10``, ``x2``) and codes their literals in a drawn
order, so bit order and ``(name, polarity)`` order disagree; every
kernel set, quotient, remainder, divisor count, network digest and
factored tree must come out the same.
"""

from __future__ import annotations

import copy
import heapq
import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from itertools import chain, combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.espresso.cube import FREE, V0, V1, Cover
from repro.synth.factor import And, Expr, Lit, Or, good_factor
from repro.synth.kernels import (
    CubeSet,
    Literal,
    LiteralCoder,
    algebraic_divide,
    common_cube,
    cubes_to_cover,
    kernels,
    make_cube_free,
)
from repro.synth.network import LogicNetwork
from repro.synth.optimize import extract_cubes, extract_kernels

from .test_optimize_compile import GOLDEN_PATH, network_digest

_MAX_EXTRACTIONS = 200


# ------------------------------------------------ the name-coded reference


def reference_cover_to_cubes(cover: Cover, fanins: list[str]) -> CubeSet:
    """Convert a positional cover over *fanins* into an algebraic cube set."""
    cubes = set()
    for row in cover.cubes:
        literals = frozenset(
            (fanins[j], bool(row[j] == V1))
            for j in range(cover.num_inputs)
            if row[j] != FREE
        )
        cubes.add(literals)
    return frozenset(cubes)


def reference_cubes_to_cover(cubes: CubeSet, fanins: list[str]) -> Cover:
    """Convert an algebraic cube set back to a positional cover.

    Raises:
        ValueError: if a cube mentions a signal not in *fanins*, or binds
            both polarities of a signal (an algebraically null cube).
    """
    position = {name: j for j, name in enumerate(fanins)}
    import numpy as np

    rows = np.full((len(cubes), len(fanins)), FREE, dtype=np.uint8)
    for i, cube in enumerate(sorted(cubes, key=sorted)):
        for name, polarity in cube:
            if name not in position:
                raise ValueError(f"cube literal {name!r} not among fanins")
            j = position[name]
            code = V1 if polarity else V0
            if rows[i, j] != FREE and rows[i, j] != code:
                raise ValueError(f"cube binds both polarities of {name!r}")
            rows[i, j] = code
    return Cover(rows, len(fanins))


def reference_cube_set_literals(cubes: CubeSet) -> int:
    """Total literal count of the expression."""
    return sum(len(cube) for cube in cubes)


def reference_cube_key(cube: frozenset) -> tuple:
    """A canonical sort key for one cube."""
    return tuple(sorted(cube))


def reference_cube_set_key(cubes: CubeSet) -> tuple:
    """A canonical sort key for a cube set.

    Divisor candidates live in hash-ordered sets; greedy selection loops
    must break score ties with this key instead of set iteration order,
    so the chosen divisors — and every synthesised netlist downstream —
    are independent of ``PYTHONHASHSEED``.  Checkpoint resume and the
    parallel sweep executor rely on this for bit-identical results
    across processes.
    """
    return tuple(sorted(reference_cube_key(cube) for cube in cubes))


def reference_algebraic_divide(expr: CubeSet, divisor: CubeSet) -> tuple[CubeSet, CubeSet]:
    """Weak division: ``expr = quotient * divisor + remainder``.

    Returns:
        ``(quotient, remainder)`` with an empty quotient when the divisor
        does not divide the expression.
    """
    if not divisor:
        return frozenset(), expr
    quotient: set[frozenset] | None = None
    for d_cube in divisor:
        partials = {cube - d_cube for cube in expr if d_cube <= cube}
        if quotient is None:
            quotient = partials
        else:
            quotient &= partials
        if not quotient:
            return frozenset(), expr
    assert quotient is not None
    product = {q_cube | d_cube for q_cube in quotient for d_cube in divisor}
    remainder = frozenset(cube for cube in expr if cube not in product)
    return frozenset(quotient), remainder


def reference_common_cube(cubes: CubeSet) -> frozenset:
    """The largest cube dividing every cube of the expression."""
    iterator = iter(cubes)
    try:
        result = set(next(iterator))
    except StopIteration:
        return frozenset()
    for cube in iterator:
        result &= cube
    return frozenset(result)


def reference_make_cube_free(cubes: CubeSet) -> CubeSet:
    """Divide out the common cube, making the expression cube-free."""
    shared = reference_common_cube(cubes)
    if not shared:
        return cubes
    return frozenset(cube - shared for cube in cubes)


def reference_kernels(
    expr: CubeSet, *, include_self: bool = True, max_kernels: int = 200
) -> set[CubeSet]:
    """Kernels of the expression (cube-free quotients by cube divisors).

    Args:
        expr: the algebraic expression.
        include_self: also report the expression itself when it is
            cube-free with more than one cube (the top-level kernel).
        max_kernels: enumeration cap — kernel counts can grow explosively
            on large SOPs, and the greedy extractor only needs a rich
            sample, not the complete set.

    Returns:
        A set of cube sets, each a kernel with at least two cubes.
    """
    found: set[CubeSet] = set()

    def recurse(current: CubeSet, minimum_literal: tuple) -> None:
        if len(found) >= max_kernels:
            return
        counts = Counter(literal for cube in current for literal in cube)
        for literal, count in sorted(counts.items()):
            if count < 2 or literal < minimum_literal:
                continue
            quotient = frozenset(cube - {literal} for cube in current if literal in cube)
            kernel = reference_make_cube_free(quotient)
            # A kernel containing the empty cube stems from single-cube
            # absorption (f = a + ab); it is not a usable divisor.
            if len(kernel) >= 2 and frozenset() not in kernel and kernel not in found:
                found.add(kernel)
                recurse(kernel, literal)
            if len(found) >= max_kernels:
                return

    recurse(expr, ("", False))
    free = reference_make_cube_free(expr)
    if include_self and len(free) >= 2:
        found.add(free)
    return found


def reference_node_cubes(network: LogicNetwork, name: str) -> CubeSet:
    node = network.nodes[name]
    return reference_cover_to_cubes(node.cover, node.fanins)


def reference_rewrite_node(quotient: CubeSet, remainder: CubeSet, divisor_signal: str) -> CubeSet:
    """The cube set ``quotient * divisor_signal + remainder``."""
    return frozenset(
        {cube | {(divisor_signal, True)} for cube in quotient} | set(remainder)
    )


def reference_write_nodes(network: LogicNetwork, nodes: ReferenceAlgebraicNodes, names: Iterable[str]) -> None:
    """Give each node of *names*, in network order, the fanins and cover of
    its cube set."""
    for name in sorted(names, key=nodes.position.__getitem__):
        cubes = nodes.cubes[name]
        signals = sorted({literal[0] for cube in cubes for literal in cube})
        node = network.nodes[name]
        node.fanins = signals
        node.cover = reference_cubes_to_cover(cubes, signals)
    # Direct fanin rewrite: the cached topological order / fanout map are
    # stale now (add_node/set_output invalidate automatically, this does
    # not go through them).
    network.invalidate_structure_caches()


def reference_install_divisor(network: LogicNetwork, divisor: CubeSet, stem: str) -> str:
    signals = sorted({literal[0] for cube in divisor for literal in cube})
    cover = reference_cubes_to_cover(divisor, signals)
    name = network.fresh_name(stem)
    network.add_node(name, signals, cover)
    return name


class ReferenceAlgebraicNodes:
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
            self.update(name, reference_node_cubes(network, name))

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


def reference_divide_node(cubes: CubeSet, kernel: CubeSet) -> tuple | None:
    """``(quotient, remainder, literals saved)`` when dividing *kernel* into
    *cubes* shrinks them, else None."""
    quotient, remainder = reference_algebraic_divide(cubes, kernel)
    if not quotient:
        return None
    old_literals = reference_cube_set_literals(cubes)
    new_literals = (
        reference_cube_set_literals(quotient) + len(quotient) + reference_cube_set_literals(remainder)
    )
    if new_literals < old_literals:
        return quotient, remainder, old_literals - new_literals
    return None


def reference_extract_kernels(network: LogicNetwork) -> int:
    """Greedy shared-kernel extraction.

    Each iteration ranks the kernels of every node by intrinsic value,
    divides the most promising ones into the nodes and extracts the one
    saving the most literals.  Node kernels are recomputed only for the
    nodes an extraction rewrote or added, and a kernel's division into a
    node is kept until that node is rewritten.

    Returns:
        Number of divisor nodes created.
    """
    nodes = ReferenceAlgebraicNodes(network)
    node_kernels: dict[str, set[CubeSet]] = {}
    # Candidates: the number of nodes each kernel comes from, and its rank
    # key.  Score ties are broken canonically (reference_cube_set_key), not by set
    # iteration order, so extraction is hash-seed independent.
    refs: Counter = Counter()
    rank: dict[CubeSet, tuple] = {}
    # Per kernel tried so far: its literal set, the nodes it shrinks (name
    # -> reference_divide_node result) and the nodes to divide again before its next
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
        found = reference_kernels(cubes, max_kernels=50) if len(cubes) >= 2 else set()
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
                    -(len(kernel) - 1) * (reference_cube_set_literals(kernel) - 1),
                    reference_cube_set_key(kernel),
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
            division = reference_divide_node(nodes.cubes[name], kernel)
            if division is not None:
                uses[name] = division
        stale.clear()
        saved = sum(division[2] for division in uses.values())
        return uses, saved - reference_cube_set_literals(kernel)

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
        divisor_signal = reference_install_divisor(network, best_kernel, "k")
        changed = [(divisor_signal, best_kernel)] + [
            (name, reference_rewrite_node(quotient, remainder, divisor_signal))
            for name, (quotient, remainder, _) in sorted(
                uses.items(), key=lambda item: nodes.position[item[0]]
            )
        ]
        rewritten.update(uses)
        for name, cubes in changed:
            _, _, old_literals = nodes.update(name, cubes)
            refresh(name, old_literals)
        created += 1
    reference_write_nodes(network, nodes, rewritten)
    return created


def reference_extract_cubes(network: LogicNetwork) -> int:
    """Greedy shared-cube extraction (common sub-cubes across nodes).

    The occurrence count of every 2-literal sub-cube is kept across
    iterations and updated from the cubes each rewrite removed and added.

    Returns:
        Number of divisor nodes created.
    """
    nodes = ReferenceAlgebraicNodes(network)
    counts = Counter(reference_pairs(chain.from_iterable(nodes.cubes.values())))
    # Extracting a 2-literal cube saves one literal per occurrence beyond
    # the new node's own two literals: the most frequent pair wins if it
    # occurs more than twice, ties going to the smallest reference_cube_key, which
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
        divisor_signal = reference_install_divisor(network, divisor, "c")
        changed = [(divisor_signal, divisor)]
        for name in users:
            quotient, remainder = reference_algebraic_divide(nodes.cubes[name], divisor)
            if quotient:
                changed.append((name, reference_rewrite_node(quotient, remainder, divisor_signal)))
                rewritten.add(name)
        moved: Counter = Counter()
        for name, cubes in changed:
            removed, added, _ = nodes.update(name, cubes)
            moved.update(reference_pairs(added))
            moved.subtract(Counter(reference_pairs(removed)))
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
    reference_write_nodes(network, nodes, rewritten)
    return created


def reference_pairs(cubes: Iterable[frozenset]) -> Iterator[tuple[Literal, Literal]]:
    """Every 2-literal sub-cube of *cubes*, as its sorted literal pair."""
    return (pair for cube in cubes for pair in combinations(sorted(cube), 2))


def reference_flatten(kind: type, children: list[Expr]) -> Expr:
    merged: list[Expr] = []
    for child in children:
        if isinstance(child, kind):
            merged.extend(child.children)  # type: ignore[attr-defined]
        else:
            merged.append(child)
    if len(merged) == 1:
        return merged[0]
    return kind(tuple(merged))  # type: ignore[call-arg]


def reference_cube_expr(cube: frozenset) -> Expr:
    literals = [Lit(name, polarity) for name, polarity in sorted(cube)]
    if not literals:
        raise ValueError("cannot factor an expression containing the empty cube")
    if len(literals) == 1:
        return literals[0]
    return And(tuple(literals))


def reference_best_divisor(expr: CubeSet) -> CubeSet | None:
    """The kernel maximising (cubes - 1) * (literals - 1), or None."""
    candidates = reference_kernels(expr, include_self=False)
    best: CubeSet | None = None
    best_value = 0
    # Canonical iteration order: score ties must not fall back to set
    # iteration order, or factoring depends on PYTHONHASHSEED.
    for kernel in sorted(candidates, key=reference_cube_set_key):
        value = (len(kernel) - 1) * (reference_cube_set_literals(kernel) - 1)
        if value > best_value:
            best, best_value = kernel, value
    return best


def reference_good_factor(expr: CubeSet) -> Expr:
    """Factor an algebraic expression into a (near-)minimal-literal tree.

    The empty expression (constant 0) and the expression containing the
    empty cube (constant 1) cannot be represented as factored forms and
    are rejected — callers handle constants separately.

    Raises:
        ValueError: on constant expressions.
    """
    if not expr:
        raise ValueError("cannot factor the constant-0 expression")
    if frozenset() in expr:
        raise ValueError("cannot factor an expression absorbed to constant 1")
    if len(expr) == 1:
        return reference_cube_expr(next(iter(expr)))

    shared = reference_common_cube(expr)
    if shared:
        rest = frozenset(cube - shared for cube in expr)
        if frozenset() in rest:
            # f = shared * (1 + ...) -> algebraically just handle as SOP of
            # the original cubes (rare; caused by single-cube absorption).
            return reference_flatten(Or, [reference_cube_expr(cube) for cube in sorted(expr, key=sorted)])
        return reference_flatten(And, [reference_cube_expr(shared), reference_good_factor(rest)])

    divisor = reference_best_divisor(expr)
    if divisor is None:
        # No kernel with value: fall back to the most frequent literal.
        counts = Counter(literal for cube in expr for literal in cube)
        literal, count = max(counts.items(), key=lambda item: (item[1], item[0]))
        if count < 2:
            return reference_flatten(Or, [reference_cube_expr(cube) for cube in sorted(expr, key=sorted)])
        divisor = frozenset({frozenset({literal})})

    quotient, remainder = reference_algebraic_divide(expr, divisor)
    if not quotient or frozenset() in quotient or frozenset() in remainder:
        return reference_flatten(Or, [reference_cube_expr(cube) for cube in sorted(expr, key=sorted)])
    product = reference_flatten(And, [reference_good_factor(divisor), reference_good_factor(quotient)])
    if not remainder:
        return product
    return reference_flatten(Or, [product, reference_good_factor(remainder)])


# ------------------------------------------------------------- strategies

NAMES = ("c_1", "k_9", "k_10", "x0", "x10", "x2")
"""Signal names whose sorted order is neither their order here nor the
order any coder hands out bits in (``k_10`` < ``k_9``, ``x10`` < ``x2``)."""

LITERALS = tuple((name, polarity) for name in NAMES for polarity in (False, True))


def _coder(order) -> LiteralCoder:
    """A coder whose bits follow *order*, a permutation of the literals."""
    coder = LiteralCoder()
    for literal in order:
        coder.code(literal)
    return coder


def _encode(coder: LiteralCoder, expr) -> CubeSet:
    return frozenset(sum(coder.code(literal) for literal in cube) for cube in expr)


def _decode(coder: LiteralCoder, expr: CubeSet) -> frozenset:
    return frozenset(frozenset(coder.cube_key(cube)) for cube in expr)


named_cubes = st.frozensets(st.sampled_from(LITERALS), max_size=4)
named_exprs = st.frozensets(named_cubes, max_size=9)
coders = st.permutations(LITERALS).map(_coder)


# ------------------------------------------------------------ expressions


class TestExpressions:
    @given(coders, named_exprs, st.booleans(), st.sampled_from([1, 2, 3, 5, 50, 200]))
    @settings(max_examples=300, deadline=None)
    def test_kernels(self, coder, expr, include_self, max_kernels):
        found = kernels(_encode(coder, expr), coder,
                        include_self=include_self, max_kernels=max_kernels)
        assert {_decode(coder, kernel) for kernel in found} == reference_kernels(
            expr, include_self=include_self, max_kernels=max_kernels
        )

    def test_kernels_at_a_hit_cap(self):
        """Which kernels a hit cap keeps follows literal order, not bit order."""
        expr = frozenset(
            frozenset({(a, True), (b, True)})
            for a, b in combinations(NAMES, 2)
        )
        uncapped = reference_kernels(expr)
        for max_kernels in (1, 2, 3, 5):
            expected = reference_kernels(expr, max_kernels=max_kernels)
            assert len(expected) < len(uncapped)
            for order in (LITERALS, LITERALS[::-1]):
                coder = _coder(order)
                found = kernels(_encode(coder, expr), coder, max_kernels=max_kernels)
                assert {_decode(coder, kernel) for kernel in found} == expected

    @given(coders, named_exprs, st.data())
    @settings(max_examples=300, deadline=None)
    def test_division(self, coder, expr, data):
        candidates = reference_kernels(expr, max_kernels=20)
        divisor = data.draw(st.one_of(
            named_exprs,
            named_cubes.map(lambda cube: frozenset({cube})),
            st.just(frozenset({frozenset()})),
            st.sampled_from(sorted(candidates, key=reference_cube_set_key))
            if candidates else named_exprs,
        ))
        quotient, remainder = algebraic_divide(
            _encode(coder, expr), _encode(coder, divisor)
        )
        expected = reference_algebraic_divide(expr, divisor)
        assert (_decode(coder, quotient), _decode(coder, remainder)) == expected

    @given(coders, named_exprs)
    @settings(max_examples=200, deadline=None)
    def test_common_cube_and_keys(self, coder, expr):
        coded = _encode(coder, expr)
        assert frozenset(coder.cube_key(common_cube(coded))) == reference_common_cube(expr)
        assert _decode(coder, make_cube_free(coded)) == reference_make_cube_free(expr)
        assert coder.cube_set_key(coded) == reference_cube_set_key(expr)
        for cube in expr:
            coded_cube = sum(coder.code(literal) for literal in cube)
            assert coder.cube_key(coded_cube) == reference_cube_key(cube)

    @given(coders, named_exprs.filter(lambda expr: expr and frozenset() not in expr))
    @settings(max_examples=300, deadline=None)
    def test_good_factor(self, coder, expr):
        assert good_factor(_encode(coder, expr), coder) == reference_good_factor(expr)

    @given(coders, named_exprs)
    @settings(max_examples=100, deadline=None)
    def test_cubes_to_cover(self, coder, expr):
        fanins = sorted({name for cube in expr for name, _ in cube})
        coded = _encode(coder, expr)
        try:
            expected = reference_cubes_to_cover(expr, fanins)
        except ValueError:
            # A cube binding both polarities; the reference names whichever
            # signal its hash order meets first.
            with pytest.raises(ValueError, match="both polarities"):
                cubes_to_cover(coded, fanins, coder)
            return
        cover = cubes_to_cover(coded, fanins, coder)
        assert cover.cube_strings() == expected.cube_strings()
        assert _decode(coder, coder.encode(cover, fanins)) == reference_cover_to_cubes(
            cover, fanins
        )


# --------------------------------------------------------------- networks

PRIMARY_INPUTS = ("x0", "x1", "x10", "x2", "c_1", "k_10")
NODE_NAMES = ("k_9", "c_2", "n0", "k_1", "x3", "c_10", "k_2", "c_3")


@st.composite
def networks(draw, min_fanins: int = 1) -> LogicNetwork:
    """A multi-level network over names that straddle the fresh divisor
    names; it has one-literal nodes, empty covers and tautology cubes."""
    network = LogicNetwork(list(PRIMARY_INPUTS))
    signals = list(PRIMARY_INPUTS)
    for name in NODE_NAMES[:draw(st.integers(1, len(NODE_NAMES)))]:
        fanins = draw(st.lists(st.sampled_from(signals), min_size=min_fanins,
                               max_size=4, unique=True))
        kind = draw(st.sampled_from(["sop", "sop", "sop", "one_literal", "empty"]))
        if kind == "empty":
            rows = np.zeros((0, len(fanins)), dtype=np.uint8)
        elif kind == "one_literal":
            rows = np.full((1, len(fanins)), FREE, dtype=np.uint8)
            rows[0, 0] = draw(st.sampled_from([V0, V1]))
        else:
            rows = np.array(draw(st.lists(
                st.lists(st.sampled_from([V1, V1, V0, FREE]),
                         min_size=len(fanins), max_size=len(fanins)),
                min_size=1, max_size=10,
            )), dtype=np.uint8)
        network.add_node(name, fanins, Cover(rows, len(fanins)))
        signals.append(name)
    for position, name in enumerate(NODE_NAMES[:len(signals) - len(PRIMARY_INPUTS)]):
        network.set_output(f"y{position}", name)
    return network


class TestNetworks:
    @given(networks())
    @settings(max_examples=150, deadline=None)
    def test_extraction(self, network):
        reference = copy.deepcopy(network)
        assert extract_kernels(network) == reference_extract_kernels(reference)
        assert network_digest(network) == network_digest(reference)
        assert extract_cubes(network) == reference_extract_cubes(reference)
        assert network_digest(network) == network_digest(reference)

    @given(networks(min_fanins=3))
    @settings(max_examples=100, deadline=None)
    def test_cube_extraction_alone(self, network):
        reference = copy.deepcopy(network)
        assert extract_cubes(network) == reference_extract_cubes(reference)
        assert network_digest(network) == network_digest(reference)


_FINGERPRINT_SCRIPT = """
import json
from tests.synth.test_optimize_compile import optimize_fingerprint
print(json.dumps(optimize_fingerprint("ex1010"), sort_keys=True))
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_ex1010_golden_under_hash_seed(seed):
    """The ex1010 optimize golden holds in a fresh interpreter per hash seed."""
    root = Path(__file__).resolve().parents[2]
    path = os.pathsep.join(
        [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
    )
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    output = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_SCRIPT], cwd=root, env=env,
        capture_output=True, text=True, check=True, timeout=600,
    ).stdout
    golden = json.loads(GOLDEN_PATH.read_text())["ex1010"]
    assert json.loads(output) == golden

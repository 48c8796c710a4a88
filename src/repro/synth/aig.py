"""AND-inverter graphs — the ABC-style cross-validation optimiser.

The paper double-checks its Design Compiler results by pushing the same
specifications through ABC's ``resyn2rs`` script.  This module provides the
equivalent second, structurally independent optimisation pipeline:

* a structurally hashed AIG with constant propagation and trivial-AND
  simplification,
* ``balance()`` — depth-optimal reassociation of conjunction trees,
* ``collapse_refactor()`` — global collapse to truth tables followed by
  ESPRESSO + algebraic refactoring and re-strashing (the heavy-hammer
  equivalent of ABC's refactor passes at this problem scale),
* :func:`resyn2rs` — the composed script,
* :meth:`Aig.to_network` — lowering back to an SOP network so the standard
  mapper/timing/power stack can measure the result.

Literal encoding: literal ``2*node + phase`` with ``phase=1`` meaning
complemented; node 0 is the constant-0 node, nodes ``1..num_pis`` are the
primary inputs, AND nodes follow.
"""

from __future__ import annotations

import numpy as np

from ..espresso.cube import FREE, V0, V1, Cover
from ..espresso.minimize import espresso
from .factor import And, Expr, Lit, Or, good_factor
from .kernels import LiteralCoder
from .network import LogicNetwork

__all__ = ["Aig", "aig_from_network", "resyn2rs"]


class Aig:
    """A structurally hashed AND-inverter graph."""

    def __init__(self, num_pis: int, pi_names: list[str] | None = None):
        self.num_pis = num_pis
        self.pi_names = list(pi_names) if pi_names else [f"x{i}" for i in range(num_pis)]
        if len(self.pi_names) != num_pis:
            raise ValueError("pi_names length mismatch")
        # fanins[i] = (lit0, lit1) for AND node i; PIs/const have no entry.
        self.fanins: dict[int, tuple[int, int]] = {}
        self._strash: dict[tuple[int, int], int] = {}
        self._next_node = num_pis + 1
        self.outputs: dict[str, int] = {}  # output name -> literal

    # --------------------------------------------------------------- literals

    @staticmethod
    def lit_not(lit: int) -> int:
        """Complement a literal."""
        return lit ^ 1

    @staticmethod
    def lit_node(lit: int) -> int:
        """Node index of a literal."""
        return lit >> 1

    @staticmethod
    def lit_phase(lit: int) -> int:
        """1 when the literal is complemented."""
        return lit & 1

    @property
    def const0(self) -> int:
        """The constant-0 literal."""
        return 0

    @property
    def const1(self) -> int:
        """The constant-1 literal."""
        return 1

    def pi_lit(self, index: int) -> int:
        """The literal of primary input *index*."""
        if not 0 <= index < self.num_pis:
            raise ValueError(f"PI index {index} out of range")
        return 2 * (index + 1)

    # ------------------------------------------------------------ construction

    def and_(self, a: int, b: int) -> int:
        """AND of two literals, with simplification and strashing."""
        if a == self.const0 or b == self.const0 or a == self.lit_not(b):
            return self.const0
        if a == self.const1:
            return b
        if b == self.const1:
            return a
        if a == b:
            return a
        key = (a, b) if a <= b else (b, a)
        existing = self._strash.get(key)
        if existing is not None:
            return 2 * existing
        node = self._next_node
        self._next_node += 1
        self.fanins[node] = key
        self._strash[key] = node
        return 2 * node

    def or_(self, a: int, b: int) -> int:
        """OR via De Morgan."""
        return self.lit_not(self.and_(self.lit_not(a), self.lit_not(b)))

    def and_many(self, literals: list[int]) -> int:
        """Balanced conjunction of a literal list (1 for empty)."""
        if not literals:
            return self.const1
        layer = list(literals)
        while len(layer) > 1:
            layer = [
                self.and_(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
                for i in range(0, len(layer), 2)
            ]
        return layer[0]

    def or_many(self, literals: list[int]) -> int:
        """Balanced disjunction of a literal list (0 for empty)."""
        return self.lit_not(self.and_many([self.lit_not(l) for l in literals]))

    def set_output(self, name: str, lit: int) -> None:
        """Declare primary output *name* = literal."""
        self.outputs[name] = lit

    # --------------------------------------------------------------- analysis

    @property
    def num_ands(self) -> int:
        """AND-node count — the AIG size metric."""
        return len(self.fanins)

    def depth(self) -> int:
        """Longest PI-to-PO path in AND nodes."""
        levels: dict[int, int] = {0: 0}
        for i in range(1, self.num_pis + 1):
            levels[i] = 0
        for node in sorted(self.fanins):
            a, b = self.fanins[node]
            levels[node] = 1 + max(levels[self.lit_node(a)], levels[self.lit_node(b)])
        if not self.outputs:
            return 0
        return max(levels[self.lit_node(lit)] for lit in self.outputs.values())

    def evaluate(self) -> dict[str, np.ndarray]:
        """Output truth tables over the PI space.

        Runs on the packed bit-parallel engine (:mod:`repro.sim`);
        bit-identical to :meth:`evaluate_reference`.
        """
        from ..sim import engine as sim_engine
        from ..sim import packed as sim_packed

        size = 1 << self.num_pis
        packed = sim_engine.aig_output_words(self)
        return {
            name: sim_packed.unpack_bool(words, size)
            for name, words in packed.items()
        }

    def evaluate_reference(self) -> dict[str, np.ndarray]:
        """Byte-per-vector reference implementation of :meth:`evaluate`
        (the packed engine's test oracle)."""
        size = 1 << self.num_pis
        idx = np.arange(size, dtype=np.int64)
        tables: dict[int, np.ndarray] = {0: np.zeros(size, dtype=bool)}
        for i in range(self.num_pis):
            tables[i + 1] = ((idx >> i) & 1).astype(bool)

        def lit_table(lit: int) -> np.ndarray:
            table = tables[self.lit_node(lit)]
            return ~table if self.lit_phase(lit) else table

        for node in sorted(self.fanins):
            a, b = self.fanins[node]
            tables[node] = lit_table(a) & lit_table(b)
        return {name: lit_table(lit) for name, lit in self.outputs.items()}

    # ------------------------------------------------------------ optimisation

    def _collect_conjunction(self, lit: int, refs: dict[int, int]) -> list[int]:
        """Flatten a single-fanout AND tree rooted at a positive literal."""
        node = self.lit_node(lit)
        if self.lit_phase(lit) or node not in self.fanins or refs.get(node, 0) > 1:
            return [lit]
        a, b = self.fanins[node]
        return self._collect_conjunction(a, refs) + self._collect_conjunction(b, refs)

    def balanced(self) -> "Aig":
        """A depth-balanced copy (reassociates conjunction chains)."""
        refs: dict[int, int] = {}
        for a, b in self.fanins.values():
            refs[self.lit_node(a)] = refs.get(self.lit_node(a), 0) + 1
            refs[self.lit_node(b)] = refs.get(self.lit_node(b), 0) + 1
        for lit in self.outputs.values():
            refs[self.lit_node(lit)] = refs.get(self.lit_node(lit), 0) + 1

        result = Aig(self.num_pis, self.pi_names)
        mapping: dict[int, int] = {0: result.const0}
        for i in range(self.num_pis):
            mapping[i + 1] = result.pi_lit(i)

        def rebuild(lit: int) -> int:
            node = self.lit_node(lit)
            if node in mapping:
                built = mapping[node]
            else:
                # Collect the conjunction tree from the fanins (starting at
                # the node itself would immediately stop on its own
                # multi-fanout reference and recurse forever).
                a, b = self.fanins[node]
                leaves = self._collect_conjunction(
                    a, refs
                ) + self._collect_conjunction(b, refs)
                built_leaves = [rebuild(leaf) for leaf in leaves]
                built = result.and_many(built_leaves)
                mapping[node] = built
            return result.lit_not(built) if self.lit_phase(lit) else built

        for name, lit in self.outputs.items():
            result.set_output(name, rebuild(lit))
        return result

    def collapse_refactor(self) -> "Aig":
        """Collapse to truth tables, re-minimise, refactor, re-strash.

        Global resynthesis: each output's exact function is minimised with
        ESPRESSO, factored algebraically and rebuilt into a fresh AIG whose
        structural hashing recovers sharing across outputs.
        """
        tables = self.evaluate()
        result = Aig(self.num_pis, self.pi_names)
        pi_lits = {name: result.pi_lit(i) for i, name in enumerate(self.pi_names)}
        coder = LiteralCoder()

        def lower(expr: Expr) -> int:
            if isinstance(expr, Lit):
                lit = pi_lits[expr.signal]
                return lit if expr.polarity else result.lit_not(lit)
            parts = [lower(child) for child in expr.children]
            if isinstance(expr, And):
                return result.and_many(parts)
            assert isinstance(expr, Or)
            return result.or_many(parts)

        for name, table in tables.items():
            minterms = np.flatnonzero(table)
            if minterms.size == 0:
                result.set_output(name, result.const0)
                continue
            if minterms.size == table.size:
                result.set_output(name, result.const1)
                continue
            cover = espresso(Cover.from_minterms(self.num_pis, minterms))
            cubes = coder.encode(cover, self.pi_names)
            result.set_output(name, lower(good_factor(cubes, coder)))
        return result

    # ------------------------------------------------------------- conversion

    def to_network(self) -> LogicNetwork:
        """Lower to an SOP network (one AND2 node per AIG node)."""
        network = LogicNetwork(list(self.pi_names))
        signal_of: dict[int, str] = {}
        for i, name in enumerate(self.pi_names):
            signal_of[i + 1] = name

        def cover_for(a_phase: int, b_phase: int) -> Cover:
            row = np.array([[V0 if a_phase else V1, V0 if b_phase else V1]], dtype=np.uint8)
            return Cover(row, 2)

        for node in sorted(self.fanins):
            a, b = self.fanins[node]
            fanin_a = signal_of[self.lit_node(a)]
            fanin_b = signal_of[self.lit_node(b)]
            name = network.fresh_name("g")
            network.add_node(
                name, [fanin_a, fanin_b], cover_for(self.lit_phase(a), self.lit_phase(b))
            )
            signal_of[node] = name

        for out_name, lit in self.outputs.items():
            node = self.lit_node(lit)
            if node == 0:
                constant = Cover.universe(1) if self.lit_phase(lit) else Cover.empty(1)
                name = network.fresh_name("const")
                network.add_node(name, [self.pi_names[0]], constant)
                network.set_output(out_name, name)
                continue
            signal = signal_of[node]
            if self.lit_phase(lit):
                inv_name = network.fresh_name("inv")
                network.add_node(inv_name, [signal], Cover(np.array([[V0]], dtype=np.uint8), 1))
                network.set_output(out_name, inv_name)
            else:
                network.set_output(out_name, signal)
        return network


def aig_from_network(network: LogicNetwork) -> Aig:
    """Lower a Boolean network to an AIG through factored forms."""
    aig = Aig(len(network.primary_inputs), list(network.primary_inputs))
    lits: dict[str, int] = {
        name: aig.pi_lit(i) for i, name in enumerate(network.primary_inputs)
    }
    coder = LiteralCoder()

    def lower(expr: Expr) -> int:
        if isinstance(expr, Lit):
            lit = lits[expr.signal]
            return lit if expr.polarity else aig.lit_not(lit)
        parts = [lower(child) for child in expr.children]
        if isinstance(expr, And):
            return aig.and_many(parts)
        assert isinstance(expr, Or)
        return aig.or_many(parts)

    for name in network.topological_order():
        node = network.nodes[name]
        if node.cover.num_cubes == 0:
            lits[name] = aig.const0
            continue
        cubes = coder.encode(node.cover, node.fanins)
        if 0 in cubes:
            lits[name] = aig.const1
            continue
        lits[name] = lower(good_factor(cubes, coder))

    for out_name, signal in network.outputs.items():
        aig.set_output(out_name, lits[signal])
    return aig


def resyn2rs(aig: Aig) -> Aig:
    """The cross-validation script: balance, refactor, balance.

    Mirrors the role of ABC's ``resyn2rs`` in the paper — an independent
    optimiser whose area trends confirm the primary flow's results.
    """
    improved = aig.balanced()
    refactored = improved.collapse_refactor()
    if refactored.num_ands <= improved.num_ands:
        improved = refactored
    return improved.balanced()

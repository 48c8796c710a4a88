"""Tseitin CNF encodings of networks, and miter equivalence.

Together with :mod:`repro.sat.solver` this is the satisfiability half of
the simulation+SAT flexibility machinery the paper cites ([16]): circuits
are encoded clause-by-clause, and equivalence is decided by asking whether
any input makes two implementations differ (the classic miter query).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..espresso.cube import FREE, Cover
from .solver import SatSolver

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from ..synth.network import LogicNetwork

__all__ = ["CnfBuilder", "encode_network", "networks_equivalent"]


class CnfBuilder:
    """Incrementally builds a CNF over named signals."""

    def __init__(self) -> None:
        self.solver = SatSolver()
        self.variable_of: dict[str, int] = {}

    def var(self, name: str) -> int:
        """The CNF variable of signal *name* (allocated on first use)."""
        existing = self.variable_of.get(name)
        if existing is not None:
            return existing
        variable = self.solver.new_var()
        self.variable_of[name] = variable
        return variable

    def add_clause(self, literals) -> None:
        """Forward to the underlying solver."""
        self.solver.add_clause(literals)

    def encode_sop(self, output: str, fanins: list[str], cover: Cover) -> None:
        """Tseitin-encode ``output = cover(fanins)``.

        Each cube gets an auxiliary variable ``t``: ``t <-> AND(literals)``;
        the output is the OR of the cube variables.  Constant covers
        constrain the output directly.
        """
        out_var = self.var(output)
        if cover.num_cubes == 0:
            self.add_clause([-out_var])
            return
        cube_vars = []
        for row in cover.cubes:
            literals = [
                self.var(fanins[j]) if row[j] == 1 else -self.var(fanins[j])
                for j in range(cover.num_inputs)
                if row[j] != FREE
            ]
            if not literals:  # universe cube: output is constant 1
                self.add_clause([out_var])
                return
            cube_var = self.solver.new_var()
            for literal in literals:
                self.add_clause([-cube_var, literal])
            self.add_clause([cube_var] + [-l for l in literals])
            cube_vars.append(cube_var)
        for cube_var in cube_vars:
            self.add_clause([-cube_var, out_var])
        self.add_clause([-out_var] + cube_vars)

    def encode_xor(self, out: int, a: int, b: int) -> None:
        """``out <-> a XOR b`` over raw CNF variables."""
        self.add_clause([-out, a, b])
        self.add_clause([-out, -a, -b])
        self.add_clause([out, -a, b])
        self.add_clause([out, a, -b])

    def encode_or(self, out: int, literals) -> None:
        """``out <-> OR(literals)`` over raw CNF variables.

        With no literals the output is constrained to false.
        """
        literals = [int(l) for l in literals]
        for literal in literals:
            self.add_clause([-literal, out])
        self.add_clause([-out, *literals])

    def encode_cube_guard(self, literals) -> int:
        """A fresh guard ``g`` with ``g -> AND(literals)``.

        One-directional on purpose: the guard is only ever *assumed*
        true, so the reverse implication would add clauses without
        pruning anything.
        """
        guard = self.solver.new_var()
        for literal in literals:
            self.add_clause([-guard, int(literal)])
        return guard

    def encode_selector(self, guards) -> int:
        """A fresh selector ``s`` with ``s -> OR(guards)``.

        Assuming ``s`` forces at least one guard (hence one guarded cube)
        true — the one-hot batching construction: a single ``solve([s])``
        asks "is *any* of these candidate cubes reachable?".  Stale
        selectors are simply never assumed again; their clauses stay
        behind as satisfiable-by-default garbage.
        """
        guards = [int(g) for g in guards]
        if not guards:
            raise ValueError("selector over no guards")
        selector = self.solver.new_var()
        self.add_clause([-selector, *guards])
        return selector


def encode_network(builder: CnfBuilder, network: LogicNetwork, prefix: str = "") -> None:
    """Encode every node of *network*; signal ``s`` maps to ``prefix+s``.

    Primary inputs are encoded *without* the prefix so two prefixed
    networks automatically share their inputs (the miter construction).
    """
    def name_of(signal: str) -> str:
        return signal if signal in network.primary_inputs else prefix + signal

    for node_name in network.topological_order():
        node = network.nodes[node_name]
        builder.encode_sop(
            name_of(node_name), [name_of(f) for f in node.fanins], node.cover
        )


def networks_equivalent(left: LogicNetwork, right: LogicNetwork) -> bool:
    """SAT-based combinational equivalence check (miter construction).

    Both networks must have the same primary inputs and output names.

    Raises:
        ValueError: on interface mismatches.
    """
    if left.primary_inputs != right.primary_inputs:
        raise ValueError("primary input lists differ")
    if set(left.outputs) != set(right.outputs):
        raise ValueError("output name sets differ")
    builder = CnfBuilder()
    encode_network(builder, left, prefix="L_")
    encode_network(builder, right, prefix="R_")

    def signal_var(network: LogicNetwork, prefix: str, out_name: str) -> int:
        signal = network.outputs[out_name]
        if signal in network.primary_inputs:
            return builder.var(signal)
        return builder.var(prefix + signal)

    difference_vars = []
    for out_name in left.outputs:
        left_var = signal_var(left, "L_", out_name)
        right_var = signal_var(right, "R_", out_name)
        diff = builder.solver.new_var()
        builder.encode_xor(diff, left_var, right_var)
        difference_vars.append(diff)
    builder.add_clause(difference_vars)  # some output differs
    sat, _ = builder.solver.solve()
    return not sat

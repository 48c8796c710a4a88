"""Tests for Tseitin encoding and SAT-based equivalence checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.espresso.cube import Cover
from repro.sat.encode import CnfBuilder, encode_network, networks_equivalent
from repro.synth.network import LogicNetwork
from repro.synth.optimize import optimize_network
from repro.synth.renode import renode


def random_network(seed: int, n: int = 4, num_nodes: int = 2) -> LogicNetwork:
    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(n)]
    net = LogicNetwork(names)
    for t in range(num_nodes):
        k = int(rng.integers(1, 6))
        rows = rng.choice([0, 1, 2], size=(k, n), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        net.add_node(f"t{t}", names, Cover(rows, n))
        net.set_output(f"y{t}", f"t{t}")
    return net


class TestSopEncoding:
    def _solve_against_table(self, cover: Cover, fanins: list[str]):
        """Check the encoding agrees with dense evaluation on every input."""
        table = cover.evaluate()
        for minterm in range(table.shape[0]):
            builder = CnfBuilder()
            builder.encode_sop("out", fanins, cover)
            assumptions = []
            for pos, name in enumerate(fanins):
                variable = builder.var(name)
                assumptions.append(variable if (minterm >> pos) & 1 else -variable)
            out_var = builder.var("out")
            expected = bool(table[minterm])
            assumptions.append(out_var if expected else -out_var)
            sat, _ = builder.solver.solve(assumptions)
            assert sat, f"minterm {minterm} disagreed"
            sat, _ = builder.solver.solve(
                assumptions[:-1] + [-out_var if expected else out_var]
            )
            assert not sat

    def test_and_cover(self):
        self._solve_against_table(Cover.from_strings(["11"]), ["a", "b"])

    def test_or_cover(self):
        self._solve_against_table(Cover.from_strings(["1-", "-1"]), ["a", "b"])

    def test_constant_covers(self):
        self._solve_against_table(Cover.empty(2), ["a", "b"])
        self._solve_against_table(Cover.universe(2), ["a", "b"])

    @given(st.integers(0, 10**9))
    @settings(max_examples=15, deadline=None)
    def test_random_covers(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        rows = rng.choice([0, 1, 2], size=(k, n), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        self._solve_against_table(Cover(rows, n), [f"x{i}" for i in range(n)])


class TestEquivalence:
    def test_network_equals_itself(self):
        net = random_network(1)
        assert networks_equivalent(net, net)

    def test_detects_difference(self):
        left = LogicNetwork(["a", "b"])
        left.add_node("t", ["a", "b"], Cover.from_strings(["11"]))
        left.set_output("y", "t")
        right = LogicNetwork(["a", "b"])
        right.add_node("t", ["a", "b"], Cover.from_strings(["1-", "-1"]))
        right.set_output("y", "t")
        assert not networks_equivalent(left, right)

    def test_interface_mismatch(self):
        left = LogicNetwork(["a"])
        left.set_output("y", "a")
        right = LogicNetwork(["b"])
        right.set_output("y", "b")
        with pytest.raises(ValueError, match="primary input"):
            networks_equivalent(left, right)

    def test_optimization_equivalence(self):
        """SAT confirms kernel extraction preserves the function."""
        net = random_network(7, n=5, num_nodes=3)
        optimized = random_network(7, n=5, num_nodes=3)
        optimize_network(optimized)
        assert networks_equivalent(net, optimized)

    def test_renode_equivalence(self):
        net = random_network(8, n=5, num_nodes=3)
        assert networks_equivalent(net, renode(net, 4))

    @given(st.integers(0, 10**9))
    @settings(max_examples=10, deadline=None)
    def test_agrees_with_dense_comparison(self, seed):
        left = random_network(seed, n=4, num_nodes=2)
        right = random_network(seed + 1, n=4, num_nodes=2)
        dense_equal = bool(np.array_equal(left.output_table(), right.output_table()))
        assert networks_equivalent(left, right) == dense_equal

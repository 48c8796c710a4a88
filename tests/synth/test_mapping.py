"""Tests for subject graphs, the library and the technology mapper."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import FunctionSpec
from repro.espresso.cube import Cover
from repro.synth.library import generic_70nm_library, pattern_leaves
from repro.synth.mapping import find_matches, map_graph
from repro.synth.network import LogicNetwork
from repro.synth.subject import SubjectGraph, build_subject_graph


@pytest.fixture
def lib():
    return generic_70nm_library()


class TestLibrary:
    def test_pattern_leaves(self):
        assert pattern_leaves(("nand", ("var", "a"), ("inv", ("var", "b")))) == ["a", "b"]

    def test_cell_tables(self, lib):
        nand2 = lib.cell("NAND2_X1")
        np.testing.assert_array_equal(nand2.table, [True, True, True, False])
        xor2 = lib.cell("XOR2_X1")
        np.testing.assert_array_equal(xor2.table, [False, True, True, False])
        aoi = lib.cell("AOI21_X1")
        # AOI21 = ~(a*b + c); pins (a, b, c), pin0 = bit0.
        idx = np.arange(8)
        expected = ~(((idx & 1) & ((idx >> 1) & 1)) | ((idx >> 2) & 1)).astype(bool)
        np.testing.assert_array_equal(aoi.table, expected)

    def test_unknown_cell(self, lib):
        with pytest.raises(KeyError):
            lib.cell("NAND9_X9")

    def test_variants(self, lib):
        names = {c.name for c in lib.variants_of(lib.cell("INV_X1"))}
        assert names == {"INV_X1", "INV_X2"}

    def test_cell_evaluate(self, lib):
        cell = lib.cell("NOR2_X1")
        a = np.array([False, True, False, True])
        b = np.array([False, False, True, True])
        np.testing.assert_array_equal(cell.evaluate([a, b]), ~(a | b))


class TestSubjectGraph:
    def test_strashing(self):
        graph = SubjectGraph()
        a, b = graph.pi("a"), graph.pi("b")
        assert graph.nand(a, b) == graph.nand(b, a)
        assert graph.inv(graph.inv(a)) == a

    def test_constant_folding(self):
        graph = SubjectGraph()
        a = graph.pi("a")
        one = graph.const(True)
        zero = graph.const(False)
        assert graph.nand(a, zero) == one
        assert graph.nand(a, one) == graph.inv(a)
        assert graph.nand(a, a) == graph.inv(a)

    def test_build_from_network(self):
        net = LogicNetwork(["a", "b", "c"])
        net.add_node("t", ["a", "b", "c"], Cover.from_strings(["11-", "--1"]))
        net.set_output("y", "t")
        graph = build_subject_graph(net)
        values = graph.evaluate(
            {
                "a": np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=bool),
                "b": np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=bool),
                "c": np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=bool),
            }
        )
        out = values[graph.outputs["y"]]
        idx = np.arange(8)
        expected = (((idx & 1) & ((idx >> 1) & 1)) | ((idx >> 2) & 1)).astype(bool)
        np.testing.assert_array_equal(out, expected)

    def test_constant_cover_nodes(self):
        net = LogicNetwork(["a"])
        net.add_node("zero", ["a"], Cover.empty(1))
        net.add_node("one", ["a"], Cover.universe(1))
        net.set_output("z", "zero")
        net.set_output("o", "one")
        graph = build_subject_graph(net)
        assert graph.nodes[graph.outputs["z"]].kind == "const"
        assert graph.nodes[graph.outputs["o"]].kind == "const"


class TestMatching:
    def test_inv_match(self, lib):
        graph = SubjectGraph()
        a = graph.pi("a")
        ref = graph.inv(a)
        graph.set_output("y", ref)
        matches = find_matches(graph, ref, lib, set())
        assert {cell.name for cell, _ in matches} >= {"INV_X1", "INV_X2"}

    def test_xor_match(self, lib):
        """Build the 4-NAND XOR shape and check the XOR cell matches it."""
        graph = SubjectGraph()
        a, b = graph.pi("a"), graph.pi("b")
        left = graph.nand(a, graph.inv(b))
        right = graph.nand(graph.inv(a), b)
        ref = graph.nand(left, right)
        graph.set_output("y", ref)
        matches = find_matches(graph, ref, lib, set())
        assert "XOR2_X1" in {cell.name for cell, _ in matches}

    def test_root_boundary_blocks_match(self, lib):
        """Internal pattern nodes may not swallow a multi-fanout vertex."""
        graph = SubjectGraph()
        a, b = graph.pi("a"), graph.pi("b")
        inner = graph.nand(a, b)
        ref = graph.inv(inner)
        graph.set_output("y", ref)
        matches_free = find_matches(graph, ref, lib, set())
        matches_blocked = find_matches(graph, ref, lib, {inner})
        free_names = {cell.name for cell, _ in matches_free}
        blocked_names = {cell.name for cell, _ in matches_blocked}
        assert "AND2_X1" in free_names
        assert "AND2_X1" not in blocked_names
        assert "INV_X1" in blocked_names


class TestMapping:
    def _map_network(self, net, lib):
        return map_graph(build_subject_graph(net), lib)

    def test_maps_and_implements(self, lib):
        net = LogicNetwork(["a", "b", "c"])
        net.add_node("t", ["a", "b", "c"], Cover.from_strings(["11-", "--1"]))
        net.set_output("y", "t")
        netlist = self._map_network(net, lib)
        assert netlist.num_gates >= 1
        assert netlist.implements(net.to_spec())

    def test_constant_outputs(self, lib):
        net = LogicNetwork(["a"])
        net.add_node("zero", ["a"], Cover.empty(1))
        net.set_output("y", "zero")
        netlist = self._map_network(net, lib)
        assert netlist.num_gates == 0
        signal = netlist.outputs["y"]
        assert netlist.constants[signal] is False

    @given(st.integers(0, 10**9))
    @settings(max_examples=25, deadline=None)
    def test_mapping_preserves_function(self, seed):
        """End-to-end property: random SOP network -> mapped netlist
        implements exactly the same function."""
        rng = np.random.default_rng(seed)
        lib = generic_70nm_library()
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 7))
        rows = rng.choice([0, 1, 2], size=(k, n), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        cover = Cover(rows, n)
        names = [f"x{i}" for i in range(n)]
        net = LogicNetwork(names)
        net.add_node("t", names, cover)
        net.set_output("y", "t")
        netlist = self._map_network(net, lib)
        spec = net.to_spec()
        assert netlist.implements(spec)

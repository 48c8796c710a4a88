"""Randomized equivalence: packed engine vs the boolean reference oracles.

The packed simulators behind ``LogicNetwork.evaluate``,
``sim.engine.network_values``, ``MappedNetlist.evaluate`` and
``Aig.evaluate`` have byte-per-vector ``*_reference`` counterparts.
These tests pin the packed paths to the references bit for bit, including
the degenerate shapes (constant nodes, zero-gate netlists, multi-output
covers) and the Monte-Carlo estimates of the packed engine and of the
reference under a shared seed.
"""

import numpy as np
import pytest

from repro.core.montecarlo import estimate_error_rate
from repro.espresso.cube import Cover
from repro.sim import engine as sim_engine
from repro.sim import packed as pk
from repro.synth.aig import Aig, aig_from_network
from repro.synth.library import generic_70nm_library
from repro.synth.netlist import GateInstance, MappedNetlist
from repro.synth.network import LogicNetwork

from ..core.conftest import packed_adapter


def random_multilevel_network(seed: int, num_pis: int = 5, levels: int = 4):
    """A random network whose later nodes read earlier nodes."""
    rng = np.random.default_rng(seed)
    names = [f"x{i}" for i in range(num_pis)]
    net = LogicNetwork(names)
    signals = list(names)
    for t in range(levels):
        k = int(rng.integers(1, min(4, len(signals)) + 1))
        fanins = [str(s) for s in rng.choice(signals, size=k, replace=False)]
        cubes = int(rng.integers(1, 4))
        rows = rng.choice([0, 1, 2], size=(cubes, k), p=[0.3, 0.3, 0.4])
        name = f"t{t}"
        net.add_node(name, fanins, Cover(rows.astype(np.uint8), k))
        signals.append(name)
    net.set_output("y0", signals[-1])
    net.set_output("y1", signals[-2])
    return net


class TestNetworkEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_exhaustive(self, seed):
        net = random_multilevel_network(seed)
        packed = net.evaluate()
        reference = net.evaluate_reference()
        assert packed.keys() == reference.keys()
        for name in reference:
            np.testing.assert_array_equal(packed[name], reference[name], err_msg=name)

    @pytest.mark.parametrize("seed", range(4))
    def test_explicit_vectors(self, seed):
        net = random_multilevel_network(seed + 50)
        rng = np.random.default_rng(seed)
        vectors = rng.random((137, len(net.primary_inputs))) < 0.5
        packed = sim_engine.network_values(net, pk.pack_matrix(vectors), 137)
        reference = net.evaluate_vectors_reference(vectors)
        for name in reference:
            np.testing.assert_array_equal(
                pk.unpack_bool(packed[name], 137), reference[name], err_msg=name
            )

    def test_constant_nodes(self):
        net = LogicNetwork(["a"])
        net.add_node("zero", [], Cover.empty(0))
        net.add_node("one", ["a"], Cover.from_strings(["-"]))
        net.add_node("y", ["zero", "one", "a"], Cover.from_strings(["111", "001"]))
        net.set_output("out", "y")
        for name, table in net.evaluate_reference().items():
            np.testing.assert_array_equal(net.evaluate()[name], table)

    def test_output_table_multi_output(self):
        net = random_multilevel_network(99)
        table = net.output_table()
        reference = np.vstack(
            [net.evaluate_reference()[sig] for sig in net.outputs.values()]
        )
        np.testing.assert_array_equal(table, reference)

    def test_wide_node_uses_cube_kernel(self):
        """Nodes beyond the dense-table width limit take the cube path."""
        n = sim_engine._TABLE_WIDTH_LIMIT + 1
        names = [f"x{i}" for i in range(n)]
        net = LogicNetwork(names)
        net.add_node("t", names, Cover.from_strings(["1" * n, "0" + "-" * (n - 1)]))
        net.set_output("y", "t")
        rng = np.random.default_rng(0)
        vectors = rng.random((77, n)) < 0.5
        packed = sim_engine.network_values(net, pk.pack_matrix(vectors), 77)
        reference = net.evaluate_vectors_reference(vectors)
        np.testing.assert_array_equal(
            pk.unpack_bool(packed["t"], 77), reference["t"]
        )


class TestNetlistEquivalence:
    def random_netlist(self, seed: int):
        lib = generic_70nm_library()
        rng = np.random.default_rng(seed)
        netlist = MappedNetlist(lib, ["a", "b", "c"])
        netlist.constants["tie0"] = False
        netlist.constants["tie1"] = True
        signals = ["a", "b", "c", "tie0", "tie1"]
        cells = [c for c in lib.cells if c.num_pins <= len(signals)]
        for i in range(6):
            cell = cells[int(rng.integers(len(cells)))]
            inputs = [str(s) for s in rng.choice(signals, size=cell.num_pins, replace=False)]
            name = f"n{i}"
            netlist.gates.append(GateInstance(cell, name, inputs))
            signals.append(name)
        netlist.outputs["y"] = signals[-1]
        netlist.outputs["hi"] = "tie1"
        return netlist

    @pytest.mark.parametrize("seed", range(6))
    def test_exhaustive(self, seed):
        netlist = self.random_netlist(seed)
        packed = netlist.evaluate()
        reference = netlist.evaluate_reference()
        assert packed.keys() == reference.keys()
        for name in reference:
            np.testing.assert_array_equal(packed[name], reference[name], err_msg=name)

    def test_gateless_netlist(self):
        lib = generic_70nm_library()
        netlist = MappedNetlist(lib, ["a"])
        netlist.outputs["y"] = "a"
        for name, table in netlist.evaluate_reference().items():
            np.testing.assert_array_equal(netlist.evaluate()[name], table)


class TestAigEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_from_random_network(self, seed):
        net = random_multilevel_network(seed + 200)
        aig = aig_from_network(net)
        packed = aig.evaluate()
        reference = aig.evaluate_reference()
        assert packed.keys() == reference.keys()
        for name in reference:
            np.testing.assert_array_equal(packed[name], reference[name], err_msg=name)

    def test_constant_outputs(self):
        aig = Aig(2)
        a, b = aig.pi_lit(0), aig.pi_lit(1)
        aig.set_output("zero", aig.const0)
        aig.set_output("one", aig.const1)
        aig.set_output("nand", Aig.lit_not(aig.and_(a, b)))
        packed = aig.evaluate()
        reference = aig.evaluate_reference()
        for name in reference:
            np.testing.assert_array_equal(packed[name], reference[name], err_msg=name)

    def test_zero_pi_aig(self):
        aig = Aig(0)
        aig.set_output("k", aig.const1)
        packed = aig.evaluate()
        reference = aig.evaluate_reference()
        np.testing.assert_array_equal(packed["k"], reference["k"])


class TestMonteCarloAgreement:
    def test_packed_and_bool_paths_identical(self):
        """The packed engine and an adapter around the boolean reference
        consume the same packed draws, so a fixed seed gives
        bit-identical estimates -- not merely close ones."""
        net = random_multilevel_network(7)
        n = len(net.primary_inputs)

        def bool_evaluate(vectors):
            values = net.evaluate_vectors_reference(vectors)
            return np.vstack([values[sig] for sig in net.outputs.values()])

        packed_est = estimate_error_rate(
            sim_engine.packed_network_evaluator(net), n, samples=3000,
            rng=np.random.default_rng(42),
        )
        bool_est = estimate_error_rate(
            packed_adapter(bool_evaluate), n, samples=3000,
            rng=np.random.default_rng(42),
        )
        assert packed_est.rate == bool_est.rate
        assert packed_est.samples == bool_est.samples == 3000

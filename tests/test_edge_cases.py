"""Edge-case tests across modules (degenerate functions, tiny shapes)."""

import numpy as np
import pytest

from repro.core.estimates import border_bounds, signal_probability_bounds
from repro.core.ranking import ranking_assignment
from repro.core.reliability import exact_error_bounds
from repro.core.spec import FunctionSpec
from repro.core.truthtable import DC, OFF, ON
from repro.espresso.cube import Cover
from repro.synth.compile_ import compile_spec
from repro.synth.network import LogicNetwork


class TestAllDcFunction:
    """A fully unspecified function: every metric must stay defined."""

    @pytest.fixture
    def spec(self):
        return FunctionSpec(np.full((2, 16), DC, dtype=np.uint8), name="alldc")

    def test_bounds_are_zero(self, spec):
        band = exact_error_bounds(spec)
        assert band.lo == 0.0
        assert band.hi == 0.0  # no care neighbours anywhere

    def test_estimates_defined(self, spec):
        # The border estimate sees zero borders and reports the true zero;
        # the signal estimate overshoots (its min/max identity assumes all
        # n neighbours are care minterms — the paper's documented failure
        # mode), but must stay finite and in range.
        border = border_bounds(spec)
        assert border.lo == pytest.approx(0.0, abs=1e-9)
        assert border.hi == pytest.approx(0.0, abs=1e-9)
        signal = signal_probability_bounds(spec)
        assert 0.0 <= signal.lo <= signal.hi <= 1.0

    def test_assignment_policies(self, spec):
        assignment = ranking_assignment(spec, 1.0)
        assert len(assignment) == 0  # every DC is ambiguous (weight 0)

    def test_synthesis(self, spec):
        result = compile_spec(spec, objective="area")
        assert result.num_gates == 0
        assert result.error_rate == 0.0


class TestOneInputFunctions:
    def test_identity(self):
        spec = FunctionSpec.from_truth_table(np.array([[0, 1]]))
        assert exact_error_bounds(spec).lo == pytest.approx(1.0)
        result = compile_spec(spec, objective="area")
        assert result.error_rate == pytest.approx(1.0)

    def test_single_dc(self):
        spec = FunctionSpec.from_sets(1, on_sets=[[1]], dc_sets=[[0]])
        band = exact_error_bounds(spec)
        # One DC with one on-neighbour: min 0 (assign ON), max 1 events /2.
        assert band.lo == pytest.approx(0.0)
        assert band.hi == pytest.approx(0.5)


class TestEvaluateVectors:
    def test_matches_dense_evaluation(self):
        net = LogicNetwork(["a", "b", "c"])
        net.add_node("t", ["a", "b", "c"], Cover.from_strings(["1-0", "-11"]))
        net.set_output("y", "t")
        dense = net.evaluate()["t"]
        idx = np.arange(8)
        vectors = np.stack([(idx >> j) & 1 for j in range(3)], axis=1).astype(bool)
        sampled = net.evaluate_vectors_reference(vectors)["t"]
        np.testing.assert_array_equal(sampled, dense)

    def test_shape_validation(self):
        net = LogicNetwork(["a", "b"])
        with pytest.raises(ValueError, match="inputs"):
            net.evaluate_vectors_reference(np.zeros((4, 3), dtype=bool))


class TestAigDepthProperties:
    def test_balance_never_increases_depth(self):
        from repro.synth.aig import aig_from_network

        rng = np.random.default_rng(12)
        names = [f"x{i}" for i in range(5)]
        net = LogicNetwork(names)
        rows = rng.choice([0, 1, 2], size=(6, 5), p=[0.3, 0.3, 0.4]).astype(np.uint8)
        net.add_node("t", names, Cover(rows, 5))
        net.set_output("y", "t")
        aig = aig_from_network(net)
        balanced = aig.balanced()
        assert balanced.depth() <= aig.depth()


class TestLibrarySizing:
    def test_upsize_with_no_variants_is_noop(self):
        """A library with only X1 cells: sizing terminates immediately."""
        from repro.synth.library import Cell, Library
        from repro.synth.netlist import GateInstance, MappedNetlist
        from repro.synth.timing import static_timing, upsize_critical

        inv = Cell("INV_X1", ("inv", ("var", "a")), area=1, pin_cap=1,
                   resistance=1, intrinsic=1, leakage=1)
        library = Library(cells=(inv,))
        netlist = MappedNetlist(library, ["a"])
        netlist.gates.append(GateInstance(inv, "n0", ["a"]))
        netlist.outputs["y"] = "n0"
        before = static_timing(netlist).delay
        upsize_critical(netlist)
        assert static_timing(netlist).delay == before

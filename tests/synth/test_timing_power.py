"""Tests for static timing, sizing and power analysis."""

import numpy as np
import pytest

from repro.espresso.cube import Cover
from repro.synth.library import generic_70nm_library
from repro.synth.mapping import map_graph
from repro.synth.netlist import GateInstance, MappedNetlist
from repro.synth.network import LogicNetwork
from repro.synth.power import power_analysis
from repro.synth.subject import build_subject_graph
from repro.synth.timing import static_timing, upsize_critical


@pytest.fixture
def lib():
    return generic_70nm_library()


def chain_netlist(lib, length=4) -> MappedNetlist:
    """An inverter chain a -> y of the given length."""
    netlist = MappedNetlist(lib, ["a"])
    inv = lib.cell("INV_X1")
    previous = "a"
    for i in range(length):
        name = f"n{i}"
        netlist.gates.append(GateInstance(inv, name, [previous]))
        previous = name
    netlist.outputs["y"] = previous
    return netlist


class TestNetlist:
    def test_gate_pin_count_checked(self, lib):
        with pytest.raises(ValueError, match="pins"):
            GateInstance(lib.cell("NAND2_X1"), "t", ["a"])

    def test_area_and_gates(self, lib):
        netlist = chain_netlist(lib, 3)
        assert netlist.num_gates == 3
        assert netlist.area == pytest.approx(3.0)

    def test_evaluate_chain(self, lib):
        netlist = chain_netlist(lib, 2)
        values = netlist.evaluate()
        np.testing.assert_array_equal(values["n1"], values["a"])

    def test_loads_include_po(self, lib):
        netlist = chain_netlist(lib, 1)
        loads = netlist.loads()
        assert loads["n0"] == pytest.approx(lib.output_cap)
        assert loads["a"] == pytest.approx(lib.cell("INV_X1").pin_cap + lib.wire_cap)

    def test_cell_histogram(self, lib):
        netlist = chain_netlist(lib, 3)
        assert netlist.cell_histogram() == {"INV_X1": 3}


class TestTiming:
    def test_chain_delay_grows(self, lib):
        short = static_timing(chain_netlist(lib, 2)).delay
        long = static_timing(chain_netlist(lib, 6)).delay
        assert long > short

    def test_critical_path_endpoints(self, lib):
        netlist = chain_netlist(lib, 3)
        report = static_timing(netlist)
        assert report.critical_path[0] == "a"
        assert report.critical_path[-1] == "n2"

    def test_empty_netlist(self, lib):
        netlist = MappedNetlist(lib, ["a"])
        netlist.outputs["y"] = "a"
        report = static_timing(netlist)
        assert report.delay >= 0.0

    def test_upsize_reduces_delay_under_load(self, lib):
        """An X1 inverter driving a heavy load should be upsized."""
        netlist = MappedNetlist(lib, ["a"])
        inv = lib.cell("INV_X1")
        netlist.gates.append(GateInstance(inv, "n0", ["a"]))
        # Fan the signal out to many loads to make the driver critical.
        for i in range(8):
            netlist.gates.append(GateInstance(inv, f"leaf{i}", ["n0"]))
        netlist.outputs["y"] = "leaf0"
        before = static_timing(netlist).delay
        upsize_critical(netlist)
        after = static_timing(netlist).delay
        assert after < before
        assert any(g.cell.name == "INV_X2" for g in netlist.gates)


class TestPower:
    def test_constant_signal_no_activity(self, lib):
        netlist = MappedNetlist(lib, ["a"])
        netlist.constants["const1"] = True
        netlist.outputs["y"] = "const1"
        report = power_analysis(netlist)
        assert report.activities["const1"] == 0.0
        assert report.dynamic == pytest.approx(0.0)

    def test_balanced_signal_max_activity(self, lib):
        netlist = chain_netlist(lib, 1)
        report = power_analysis(netlist)
        assert report.activities["a"] == pytest.approx(0.5)

    def test_leakage_accumulates(self, lib):
        netlist = chain_netlist(lib, 4)
        report = power_analysis(netlist)
        assert report.leakage == pytest.approx(4.0)
        assert report.total == report.dynamic + report.leakage

    def test_skewed_gate_probability(self, lib):
        """AND of two inputs has p=0.25 -> activity 0.375."""
        net = LogicNetwork(["a", "b"])
        net.add_node("t", ["a", "b"], Cover.from_strings(["11"]))
        net.set_output("y", "t")
        netlist = map_graph(build_subject_graph(net), lib)
        report = power_analysis(netlist)
        out_signal = netlist.outputs["y"]
        assert report.activities[out_signal] == pytest.approx(2 * 0.25 * 0.75)

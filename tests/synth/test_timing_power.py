"""Tests for static timing, sizing and power analysis."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.espresso.cube import Cover
from repro.synth.library import generic_70nm_library
from repro.synth.mapping import map_graph
from repro.synth.netlist import GateInstance, MappedNetlist
from repro.synth.network import LogicNetwork
from repro.synth.power import power_analysis
from repro.synth.subject import build_subject_graph
from repro.synth.timing import _MAX_ROUNDS, TimingReport, static_timing, upsize_critical


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


# The from-scratch timer and sizer that the indexed timing graph replaced,
# verbatim but for their names.  The incremental code must reproduce every
# float, every swap and every critical path they produce.


def reference_static_timing(netlist: MappedNetlist) -> TimingReport:
    """Compute arrival times over the netlist (topological, load-aware)."""
    library = netlist.library
    loads = netlist.loads()
    arrivals: dict[str, float] = {}
    worst_fanin: dict[str, str] = {}
    for name in netlist.primary_inputs:
        arrivals[name] = library.input_drive * loads.get(name, 0.0)
    for name in netlist.constants:
        arrivals[name] = 0.0
    for gate in netlist.gates:
        pin_arrival = 0.0
        pin_signal = ""
        for signal in gate.inputs:
            if arrivals[signal] >= pin_arrival:
                pin_arrival = arrivals[signal]
                pin_signal = signal
        arrivals[gate.output] = (
            pin_arrival + gate.cell.intrinsic + gate.cell.resistance * loads[gate.output]
        )
        worst_fanin[gate.output] = pin_signal

    if netlist.outputs:
        worst_signal = max(netlist.outputs.values(), key=lambda s: arrivals[s])
        delay = arrivals[worst_signal]
    else:
        worst_signal, delay = "", 0.0

    path: list[str] = []
    cursor = worst_signal
    while cursor:
        path.append(cursor)
        cursor = worst_fanin.get(cursor, "")
    return TimingReport(delay, arrivals, tuple(reversed(path)))


def reference_upsize_critical(netlist: MappedNetlist, *, max_rounds: int = 10) -> MappedNetlist:
    """Greedy critical-path gate sizing (in place; returns the netlist).

    Each round walks the current critical path and tries every drive
    variant of every gate on it, keeping the single swap that improves the
    worst delay the most.  Stops when no swap helps or after *max_rounds*.
    """
    library = netlist.library
    drivers = netlist.driver_of()
    for _ in range(max_rounds):
        report = reference_static_timing(netlist)
        best_delay = report.delay
        best_swap: tuple[GateInstance, object] | None = None
        for signal in report.critical_path:
            gate = drivers.get(signal)
            if gate is None:
                continue
            original = gate.cell
            for variant in library.variants_of(original):
                if variant.name == original.name:
                    continue
                gate.cell = variant
                trial = reference_static_timing(netlist).delay
                if trial < best_delay - 1e-12:
                    best_delay = trial
                    best_swap = (gate, variant)
                gate.cell = original
        if best_swap is None:
            return netlist
        gate, variant = best_swap
        gate.cell = variant  # type: ignore[assignment]
    return netlist


LIBRARY = generic_70nm_library()


@st.composite
def netlist_plans(draw):
    """``(PI count, constant values, (cell name, inputs) per gate, PO
    signals)`` over every library cell: gates read earlier signals, one
    signal possibly on several pins, and POs bind any signal, repeats
    included."""
    num_pis = draw(st.integers(0, 4))
    constants = draw(st.lists(st.booleans(), max_size=2))
    signals = [f"x{i}" for i in range(num_pis)] + [f"c{i}" for i in range(len(constants))]
    gates = []
    for g in range(draw(st.integers(0, 14)) if signals else 0):
        cell = draw(st.sampled_from(LIBRARY.cells))
        pins = st.sampled_from(tuple(signals))
        gates.append((cell.name, draw(st.lists(pins, min_size=cell.num_pins, max_size=cell.num_pins))))
        signals.append(f"g{g}")
    outputs = draw(st.lists(st.sampled_from(tuple(signals)), max_size=5)) if signals else []
    return num_pis, constants, gates, outputs


def build_netlist(plan) -> MappedNetlist:
    num_pis, constants, gates, outputs = plan
    netlist = MappedNetlist(LIBRARY, [f"x{i}" for i in range(num_pis)])
    netlist.constants = {f"c{i}": value for i, value in enumerate(constants)}
    for g, (cell, inputs) in enumerate(gates):
        netlist.gates.append(GateInstance(LIBRARY.cell(cell), f"g{g}", list(inputs)))
    netlist.outputs = {f"y{i}": signal for i, signal in enumerate(outputs)}
    return netlist


def clone(netlist: MappedNetlist) -> MappedNetlist:
    return MappedNetlist(
        netlist.library,
        list(netlist.primary_inputs),
        [GateInstance(gate.cell, gate.output, list(gate.inputs)) for gate in netlist.gates],
        dict(netlist.outputs),
        dict(netlist.constants),
    )


def assert_matches_reference(netlist: MappedNetlist) -> None:
    """Timing and sizing equal the from-scratch reference's, float for float."""
    old = clone(netlist)
    before = static_timing(netlist)
    assert before == reference_static_timing(old)
    assert list(before.arrivals) == list(reference_static_timing(old).arrivals)
    upsize_critical(netlist)
    reference_upsize_critical(old, max_rounds=_MAX_ROUNDS)
    assert [gate.cell.name for gate in netlist.gates] == [gate.cell.name for gate in old.gates]
    assert static_timing(netlist) == reference_static_timing(old)


class TestTimingOracle:
    @given(netlist_plans())
    @settings(max_examples=150, deadline=None)
    # No gates; POs on a PI, on a constant and twice on one signal.
    @example((2, [True], [], ["x0", "c0", "x1", "x1"]))
    # Multi-fanout signals, a gate reading one signal on two pins, a
    # constant fanin and a PO bound twice to a gate.
    @example((
        2,
        [False],
        [
            ("INV_X1", ["x0"]),
            ("NAND2_X1", ["g0", "g0"]),
            ("NOR2_X1", ["g0", "x1"]),
            ("AOI21_X1", ["g1", "g2", "g0"]),
            ("OR2_X1", ["g3", "c0"]),
            ("INV_X1", ["g3"]),
            ("AND2_X1", ["g5", "g1"]),
        ],
        ["g4", "g6", "g6", "x1", "c0"],
    ))
    # An inverter driving eight: sizing upsizes it.
    @example((1, [], [("INV_X1", ["x0"])] + [("INV_X1", ["g0"])] * 8, ["g1"]))
    def test_random_netlists(self, plan):
        assert_matches_reference(build_netlist(plan))

    @pytest.mark.parametrize("policy", ["conventional", "cfactor"])
    @pytest.mark.parametrize("name", ["fout", "test4", "ex1010"])
    def test_mapped_roster_netlists(self, name, policy):
        from repro.benchgen.mcnc import mcnc_benchmark
        from repro.espresso.minimize import minimize_spec
        from repro.pipeline.stages import apply_policy
        from repro.synth.optimize import optimize_network

        assigned, _ = apply_policy(mcnc_benchmark(name), policy)
        network = LogicNetwork.from_covers(
            list(assigned.input_names),
            minimize_spec(assigned).covers,
            list(assigned.output_names),
        )
        optimize_network(network)
        assert_matches_reference(map_graph(build_subject_graph(network), LIBRARY))


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

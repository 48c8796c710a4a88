"""A tour of the full synthesis substrate, stage by stage.

Takes one incompletely specified function through every layer the
reproduction builds: ESPRESSO two-level minimisation, kernel extraction,
algebraic factoring, subject-graph construction, technology mapping,
sizing, timing and power — and cross-validates the area trend with the
AIG ``resyn2rs`` path, as the paper does with ABC.

Run:  python examples/synthesis_flow.py
"""

from repro.benchgen import mcnc_benchmark
from repro.synth.aig import aig_from_network, resyn2rs
from repro.synth.compile_ import compile_network
from repro.synth.library import generic_70nm_library
from repro.synth.mapping import map_graph
from repro.synth.network import LogicNetwork
from repro.synth.optimize import optimize_network
from repro.synth.power import power_analysis
from repro.synth.subject import build_subject_graph
from repro.synth.timing import static_timing, upsize_critical
from repro.espresso.minimize import minimize_spec


def main() -> None:
    spec = mcnc_benchmark("bench")
    print(f"spec: {spec}")

    minimized = minimize_spec(spec)
    print(f"[espresso]   {minimized.total_cubes} cubes, "
          f"{minimized.total_literals} literals")

    network = LogicNetwork.from_covers(
        list(spec.input_names), minimized.covers, list(spec.output_names)
    )
    print(f"[two-level]  {network.num_literals} SOP literals")

    optimize_network(network)
    print(f"[multilevel] {network.num_literals} literals in "
          f"{len(network.nodes)} nodes after kernel/cube extraction")

    graph = build_subject_graph(network)
    print(f"[subject]    {len(graph)} INV/NAND2 vertices")

    library = generic_70nm_library()
    netlist = map_graph(graph, library)
    print(f"[mapping]    {netlist.num_gates} cells, area {netlist.area:.1f}")
    print(f"             cells used: {netlist.cell_histogram()}")

    report_before = static_timing(netlist)
    upsize_critical(netlist)
    report_after = static_timing(netlist)
    print(f"[timing]     delay {report_before.delay:.2f} -> "
          f"{report_after.delay:.2f} after critical-path sizing")

    power = power_analysis(netlist)
    print(f"[power]      dynamic {power.dynamic:.1f} + leakage "
          f"{power.leakage:.1f} = {power.total:.1f}")

    assert netlist.implements(spec.assigned(minimized.truth_values()))
    print("[check]      netlist == specification (within the DC set)")

    # Cross-validation through the independent AIG optimiser.
    aig = aig_from_network(network)
    optimized = resyn2rs(aig)
    mapped_aig = compile_network(
        optimized.to_network(), spec, objective="area", optimize=False
    )
    print(f"[resyn2rs]   AIG {aig.num_ands} -> {optimized.num_ands} ANDs; "
          f"mapped area {mapped_aig.area:.1f} "
          f"(primary flow: {netlist.area:.1f})")


if __name__ == "__main__":
    main()

"""Multi-level synthesis, mapping, timing and power — the EDA substrate.

This subpackage stands in for the commercial tools in the paper's flow
(Synopsys Design Compiler for synthesis/mapping/reporting, ABC for
cross-validation): Boolean networks, algebraic optimisation, a generic
70 nm cell library, a tree-covering mapper, static timing, exact-activity
power analysis, an AIG optimiser, and internal-DC (ODC) extraction.
"""

from .compile_ import SynthesisResult, compile_network, compile_spec
from .factor import And, Expr, Lit, Or, expr_literals, good_factor
from .flexibility import (
    CompleteDcReport,
    CompleteFlexibilityOracle,
    node_flexibility_sat,
    reassign_complete_dcs,
)
from .kernels import LiteralCoder, algebraic_divide, cubes_to_cover, kernels
from .library import Cell, Library, generic_70nm_library
from .mapping import map_graph
from .netlist import GateInstance, MappedNetlist
from .network import LogicNetwork, LogicNode
from .optimize import extract_cubes, extract_kernels, optimize_network
from .power import PowerReport, power_analysis
from .renode import enumerate_cuts, renode
from .subject import SubjectGraph, build_subject_graph
from .timing import TimingReport, static_timing, upsize_critical
from .verilog import netlist_to_verilog, write_verilog

__all__ = [
    "SynthesisResult",
    "compile_network",
    "compile_spec",
    "And",
    "Expr",
    "Lit",
    "Or",
    "expr_literals",
    "good_factor",
    "node_flexibility_sat",
    "CompleteDcReport",
    "CompleteFlexibilityOracle",
    "reassign_complete_dcs",
    "LiteralCoder",
    "algebraic_divide",
    "cubes_to_cover",
    "kernels",
    "Cell",
    "Library",
    "generic_70nm_library",
    "map_graph",
    "GateInstance",
    "MappedNetlist",
    "LogicNetwork",
    "LogicNode",
    "extract_cubes",
    "extract_kernels",
    "optimize_network",
    "PowerReport",
    "power_analysis",
    "enumerate_cuts",
    "renode",
    "SubjectGraph",
    "build_subject_graph",
    "TimingReport",
    "static_timing",
    "upsize_critical",
    "netlist_to_verilog",
    "write_verilog",
]

"""Satisfiability substrate: CNF solving, Tseitin encoding, equivalence.

The SAT half of the simulation+SAT flexibility machinery the paper cites
(Mishchenko et al., [16]); also an independent engine for combinational
equivalence checking next to the dense-truth-table checks.
"""

from .encode import CnfBuilder, encode_network, networks_equivalent
from .solver import SatSolver

__all__ = [
    "CnfBuilder",
    "encode_network",
    "networks_equivalent",
    "SatSolver",
]

"""Packed bit-parallel simulation engine.

Signals are uint64 word arrays — 64 simulation vectors per word — and
gate evaluation is whole-word bitwise arithmetic:

* :mod:`repro.sim.packed` — the word-level substrate: pack/unpack,
  tail masking, the exhaustive packed PI space, popcount, and the two
  node kernels (per-cube SOP terms and Shannon-reduced dense tables);
* :mod:`repro.sim.engine` — full-circuit simulators for
  :class:`~repro.synth.network.LogicNetwork`,
  :class:`~repro.synth.netlist.MappedNetlist` and
  :class:`~repro.synth.aig.Aig`, plus packed evaluator factories for
  Monte-Carlo sampling;
* :mod:`repro.sim.incremental` — :class:`IncrementalNetworkSim`,
  cone-restricted flip evaluation and in-place rewrite propagation for
  the ODC/reliability loops.

See ``docs/performance.md`` ("Simulation engine") for the word layout
and the measured speedups, and ``docs/observability.md`` for the
``sim.*`` metrics.
"""

from .engine import (
    aig_output_words,
    eval_node,
    netlist_values,
    network_output_words,
    network_values,
    packed_netlist_evaluator,
    packed_network_evaluator,
)
from .incremental import IncrementalNetworkSim
from .packed import (
    ALL_ONES,
    WORD_BITS,
    eval_cover,
    eval_table,
    num_words,
    pack_bool,
    pack_matrix,
    pattern_masks,
    pi_space,
    popcount,
    tail_mask,
    unpack_bool,
    unpack_matrix,
    zero_tail,
)

__all__ = [
    "ALL_ONES",
    "IncrementalNetworkSim",
    "WORD_BITS",
    "aig_output_words",
    "eval_cover",
    "eval_node",
    "eval_table",
    "netlist_values",
    "network_output_words",
    "network_values",
    "num_words",
    "pack_bool",
    "pack_matrix",
    "packed_netlist_evaluator",
    "packed_network_evaluator",
    "pattern_masks",
    "pi_space",
    "popcount",
    "tail_mask",
    "unpack_bool",
    "unpack_matrix",
    "zero_tail",
]

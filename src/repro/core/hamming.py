"""Hamming-distance utilities over minterm indices.

Minterms of an *n*-input function are integers in ``[0, 2**n)``; input ``j``
is bit ``j`` of the index.  Single-bit input errors (the fault model of the
paper) map a minterm to one of its *n* 1-Hamming-distance neighbours.
"""

from __future__ import annotations

import numpy as np

from .truthtable import DC, OFF, ON, neighbor_view, num_inputs_of

__all__ = [
    "neighbor_phase_counts",
    "same_phase_neighbor_counts",
]


def neighbor_phase_counts(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-minterm counts of on-, off- and DC-phase neighbours.

    For every minterm ``x`` (and every output, for stacked arrays) this
    counts how many of its *n* 1-Hamming-distance neighbours lie in the
    on-set, the off-set and the DC-set of the *same* output.

    Returns:
        ``(on_counts, off_counts, dc_counts)``, each an ``int16`` array with
        the same shape as *phases*.
    """
    n = num_inputs_of(phases)
    on_counts = np.zeros(phases.shape, dtype=np.int16)
    off_counts = np.zeros(phases.shape, dtype=np.int16)
    dc_counts = np.zeros(phases.shape, dtype=np.int16)
    for bit in range(n):
        nb = neighbor_view(phases, bit)
        on_counts += nb == ON
        off_counts += nb == OFF
        dc_counts += nb == DC
    return on_counts, off_counts, dc_counts


def same_phase_neighbor_counts(phases: np.ndarray) -> np.ndarray:
    """Per-minterm count of neighbours sharing the minterm's own phase.

    This is the raw ingredient of the complexity factor: DC neighbours of a
    DC minterm count as "same phase", exactly as in the paper's definition
    (phases are compared as on/off/DC labels).
    """
    n = num_inputs_of(phases)
    counts = np.zeros(phases.shape, dtype=np.int16)
    for bit in range(n):
        counts += neighbor_view(phases, bit) == phases
    return counts

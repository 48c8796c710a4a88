"""Dense truth-table representation of incompletely specified functions.

Throughout :mod:`repro`, an *n*-input incompletely specified Boolean function
is represented by a dense *phase array*: a ``numpy.uint8`` array of length
``2**n`` whose entry at minterm index ``x`` is one of

* :data:`OFF` (0) — ``x`` is in the off-set,
* :data:`ON` (1) — ``x`` is in the on-set,
* :data:`DC` (2) — ``x`` is in the don't-care set.

Bit ``j`` of the minterm index is the value of input ``j`` (input 0 is the
least significant bit).  Multi-output functions stack one phase array per
output into a 2-D array of shape ``(num_outputs, 2**n)``.

This module provides the low-level operations on phase arrays that the rest
of the package builds on: validation, phase statistics and the *neighbour
view* trick used to reason about 1-Hamming-distance neighbours without
materialising index permutations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "OFF",
    "ON",
    "DC",
    "PHASE_NAMES",
    "num_inputs_of",
    "validate_phases",
    "neighbor_view",
    "care_mask",
    "phase_fractions",
    "phase_counts",
]

OFF: int = 0
"""Phase code for minterms in the off-set."""

ON: int = 1
"""Phase code for minterms in the on-set."""

DC: int = 2
"""Phase code for minterms in the don't-care set."""

PHASE_NAMES: dict[int, str] = {OFF: "off", ON: "on", DC: "dc"}
"""Human-readable names for the phase codes."""


def num_inputs_of(phases: np.ndarray) -> int:
    """Return ``n`` such that the last axis of *phases* has length ``2**n``.

    Raises:
        ValueError: if the last axis length is not a power of two.
    """
    size = phases.shape[-1]
    n = int(size).bit_length() - 1
    if size <= 0 or (1 << n) != size:
        raise ValueError(f"phase array length {size} is not a power of two")
    return n


def validate_phases(phases: np.ndarray) -> np.ndarray:
    """Check that *phases* is a well-formed phase array and return it.

    The array must have a power-of-two last axis and contain only the codes
    :data:`OFF`, :data:`ON` and :data:`DC`.  The input is returned unchanged
    (as ``uint8``) so the function can be used in constructor pipelines.

    Raises:
        ValueError: on malformed shape or out-of-range phase codes.
    """
    arr = np.asarray(phases, dtype=np.uint8)
    num_inputs_of(arr)
    if arr.size and int(arr.max()) > DC:
        bad = int(arr.max())
        raise ValueError(f"phase array contains invalid code {bad}")
    return arr


def neighbor_view(phases: np.ndarray, bit: int) -> np.ndarray:
    """Return the phase array re-indexed by flipping input *bit*.

    ``neighbor_view(p, j)[..., x] == p[..., x ^ (1 << j)]`` for every minterm
    index ``x``.  The result is a view-shaped copy produced by a reshape and
    an axis reversal, which is considerably faster than fancy indexing for
    the dense sweeps used by the complexity and reliability computations.

    Args:
        phases: array whose last axis has length ``2**n``.
        bit: input index in ``[0, n)`` (bit 0 is the least significant).

    Raises:
        ValueError: if *bit* is out of range.
    """
    n = num_inputs_of(phases)
    if not 0 <= bit < n:
        raise ValueError(f"bit {bit} out of range for {n}-input function")
    lead = phases.shape[:-1]
    blocks = phases.reshape(lead + (1 << (n - 1 - bit), 2, 1 << bit))
    return blocks[..., ::-1, :].reshape(phases.shape)


def care_mask(phases: np.ndarray) -> np.ndarray:
    """Boolean mask of minterms in the care set (on-set or off-set)."""
    return phases != DC


def phase_counts(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count off/on/DC minterms along the last axis.

    Returns:
        ``(n_off, n_on, n_dc)`` arrays, one entry per leading index (scalars
        for 1-D input).
    """
    n_off = np.count_nonzero(phases == OFF, axis=-1)
    n_on = np.count_nonzero(phases == ON, axis=-1)
    n_dc = np.count_nonzero(phases == DC, axis=-1)
    return n_off, n_on, n_dc


def phase_fractions(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Signal probabilities ``(f0, f1, fDC)`` along the last axis.

    These are the quantities the paper calls ``f_0``, ``f_1`` and ``f_DC``:
    the fractions of the ``2**n`` minterms lying in the off-, on- and DC-set.
    """
    size = phases.shape[-1]
    n_off, n_on, n_dc = phase_counts(phases)
    return n_off / size, n_on / size, n_dc / size

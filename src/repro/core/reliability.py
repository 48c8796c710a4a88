"""Exact single-bit input-error reliability metrics (Sec. 2 and Sec. 5).

Fault model
-----------

The paper considers *input errors*: a single input pin of the block flips,
so the applied vector moves to a 1-Hamming-distance neighbour of the correct
vector.  An error *propagates* (to a given output) when the implemented
output values of the correct and erroneous vectors differ; otherwise it is
*logically masked*.

Two conventions matter and are fixed here once for the whole package:

* **Sources.**  Correct input vectors are drawn from the *care set of the
  original specification* — a vector in the external DC set "can never occur
  in practice" (Sec. 2.1), so errors originating there are not counted.
  Destinations may be any vector (after assignment every vector has a
  value).
* **Units.**  The *error rate* is ``events / (n * 2**n)``: the probability
  that flipping a uniformly random input bit of a uniformly random vector
  changes the output.  Multi-output rates are means over outputs.  With
  sources restricted to the care set the numerator only receives care-source
  events, so the rate is also "care-source events per possible single-bit
  error".

Under these conventions the paper's decomposition holds exactly::

    error_count(g)  =  base_error_count(f)  +  sum over DC minterms x of
                       (off-neighbours(x) if g(x)=1 else on-neighbours(x))

for any completion ``g`` of the spec ``f``, which is what
:func:`min_dc_error_count` / :func:`max_dc_error_count` optimise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamming import neighbor_phase_counts
from .spec import FunctionSpec
from .truthtable import DC, OFF, ON, neighbor_view, num_inputs_of

__all__ = [
    "base_error_count",
    "min_dc_error_count",
    "max_dc_error_count",
    "exact_error_bounds",
    "error_events",
    "error_rate",
    "ErrorBounds",
]


def base_error_count(phases: np.ndarray) -> np.ndarray:
    """Directed count of care–care opposite-phase neighbour pairs.

    This is the paper's ``base-error``: twice the number of unordered
    (on-set, off-set) 1-Hamming-distance pairs.  It is independent of any DC
    assignment.

    Returns:
        int (1-D input) or per-output int array (2-D input).
    """
    n = num_inputs_of(phases)
    count = np.zeros(phases.shape[:-1], dtype=np.int64)
    for bit in range(n):
        nb = neighbor_view(phases, bit)
        count += np.count_nonzero((phases == ON) & (nb == OFF), axis=-1)
        count += np.count_nonzero((phases == OFF) & (nb == ON), axis=-1)
    return count if count.ndim else int(count)


def _dc_neighbor_minmax(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    on_nb, off_nb, _ = neighbor_phase_counts(phases)
    dc = phases == DC
    lo = np.where(dc, np.minimum(on_nb, off_nb), 0)
    hi = np.where(dc, np.maximum(on_nb, off_nb), 0)
    return lo.sum(axis=-1, dtype=np.int64), hi.sum(axis=-1, dtype=np.int64)


def min_dc_error_count(phases: np.ndarray) -> np.ndarray:
    """``min-dc-error``: best-case error events contributed by DC minterms.

    Sum over DC minterms of ``min(on-neighbours, off-neighbours)`` — the
    number of care-source errors landing on the minterm that must propagate
    under the *most favourable* 0/1 assignment.
    """
    lo, _ = _dc_neighbor_minmax(phases)
    return lo if lo.ndim else int(lo)


def max_dc_error_count(phases: np.ndarray) -> np.ndarray:
    """``max-dc-error``: worst-case error events contributed by DC minterms."""
    _, hi = _dc_neighbor_minmax(phases)
    return hi if hi.ndim else int(hi)


@dataclass(frozen=True)
class ErrorBounds:
    """A minimum/maximum error-rate band.

    Attributes:
        lo: lower bound (or estimate of it) on the error rate.
        hi: upper bound (or estimate of it) on the error rate.
    """

    lo: float
    hi: float

    def contains(self, rate: float, *, slack: float = 0.0) -> bool:
        """True if *rate* lies within the band (± *slack*)."""
        return self.lo - slack <= rate <= self.hi + slack

    @property
    def width(self) -> float:
        """Band width ``hi - lo``."""
        return self.hi - self.lo


def exact_error_bounds(spec: FunctionSpec) -> ErrorBounds:
    """Exact min/max achievable error rate over all DC assignments.

    Averages ``(base + min_dc) / (n * 2**n)`` and ``(base + max_dc) /
    (n * 2**n)`` over outputs.  These are the "Exact" columns of Table 3.
    """
    n = spec.num_inputs
    base = base_error_count(spec.phases)
    lo = base + min_dc_error_count(spec.phases)
    hi = base + max_dc_error_count(spec.phases)
    denom = n * spec.num_minterms
    return ErrorBounds(float(np.mean(lo / denom)), float(np.mean(hi / denom)))


def error_events(
    impl_phases: np.ndarray,
    *,
    source_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Count directed error events of an implementation.

    An event is a pair ``(x, j)`` such that ``x`` is an admissible source
    and the implementation value changes when input ``j`` flips.  Entries of
    *impl_phases* that are still DC never produce or absorb events (an
    unassigned minterm is treated as matching everything, which makes the
    count of a partial assignment a lower bound on any completion).

    Args:
        impl_phases: phase array of the implementation (usually fully
            specified).
        source_mask: boolean mask of admissible source minterms, same shape
            as *impl_phases* (default: the implementation's own care set).

    Returns:
        int64 event counts, one per output (scalar for 1-D input).
    """
    n = num_inputs_of(impl_phases)
    if source_mask is None:
        source_mask = impl_phases != DC
    if source_mask.shape != impl_phases.shape:
        raise ValueError("source mask shape mismatch")
    count = np.zeros(impl_phases.shape[:-1], dtype=np.int64)
    for bit in range(n):
        nb = neighbor_view(impl_phases, bit)
        flips = ((impl_phases == ON) & (nb == OFF)) | ((impl_phases == OFF) & (nb == ON))
        count += np.count_nonzero(flips & source_mask, axis=-1)
    return count if count.ndim else int(count)


def error_rate(
    impl: FunctionSpec,
    *,
    spec: FunctionSpec | None = None,
) -> float:
    """Mean single-bit input-error rate of an implementation.

    Args:
        impl: the implemented (normally fully specified) function.
        spec: original specification whose care set defines the admissible
            error sources; defaults to *impl* itself (all-sources when
            *impl* is fully specified).

    Returns:
        events / (n * 2**n), averaged over outputs.
    """
    source = (spec or impl).care_mask()
    events = np.atleast_1d(error_events(impl.phases, source_mask=source))
    return float(np.mean(events / (impl.num_inputs * impl.num_minterms)))

"""Core algorithms of the paper: specs, metrics, and DC assignment.

This subpackage is self-contained (numpy only) and holds everything that is
*technology independent*: the function representation, the complexity-factor
metrics, the exact reliability model, the two proposed assignment algorithms
and the Sec. 5 analytic estimators.
"""

from .assignment import Assignment
from .cfactor import DEFAULT_THRESHOLD, THRESHOLD_RANGE, cfactor_assignment
from .complexity import (
    complexity_factor,
    expected_complexity_factor,
    local_complexity,
    local_complexity_factor,
    spec_complexity_factor,
    spec_expected_complexity_factor,
)
from .estimates import (
    EstimateReport,
    border_bounds,
    border_counts,
    estimate_report,
    signal_probability_bounds,
)
from .hamming import neighbor_phase_counts
from .montecarlo import MonteCarloEstimate, estimate_error_rate
from .ranking import complete_assignment, rank_dc_minterms, ranking_assignment
from .reliability import (
    ErrorBounds,
    base_error_count,
    error_events,
    error_rate,
    exact_error_bounds,
    max_dc_error_count,
    min_dc_error_count,
)
from .spec import FunctionSpec
from .truthtable import DC, OFF, ON

__all__ = [
    "Assignment",
    "DEFAULT_THRESHOLD",
    "THRESHOLD_RANGE",
    "cfactor_assignment",
    "complexity_factor",
    "expected_complexity_factor",
    "local_complexity",
    "local_complexity_factor",
    "spec_complexity_factor",
    "spec_expected_complexity_factor",
    "EstimateReport",
    "border_bounds",
    "border_counts",
    "estimate_report",
    "signal_probability_bounds",
    "neighbor_phase_counts",
    "MonteCarloEstimate",
    "estimate_error_rate",
    "complete_assignment",
    "rank_dc_minterms",
    "ranking_assignment",
    "ErrorBounds",
    "base_error_count",
    "error_events",
    "error_rate",
    "exact_error_bounds",
    "max_dc_error_count",
    "min_dc_error_count",
    "FunctionSpec",
    "DC",
    "OFF",
    "ON",
]

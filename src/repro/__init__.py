"""repro — Reliability-driven don't care assignment for logic synthesis.

A complete, self-contained reproduction of Zukoski, Choudhury & Mohanram,
*"Reliability-driven don't care assignment for logic synthesis"*, DATE 2011,
including every substrate the paper's evaluation depends on: an ESPRESSO-
style two-level minimiser, a SAT solver, PLA I/O, a multi-level synthesis
flow with technology mapping / timing / power, an AIG optimiser, synthetic
benchmark generation, and the full experiment harness.

Quickstart::

    import repro
    from repro.benchgen import mcnc_benchmark
    from repro.flows import run_flow

    spec = mcnc_benchmark("ex1010")
    result = run_flow(spec, "cfactor", threshold=0.55, objective="power")
    print(result.error_rate, result.area)
"""

from .core import (
    DC,
    OFF,
    ON,
    Assignment,
    ErrorBounds,
    FunctionSpec,
    base_error_count,
    border_bounds,
    cfactor_assignment,
    complete_assignment,
    complexity_factor,
    error_rate,
    estimate_report,
    exact_error_bounds,
    expected_complexity_factor,
    local_complexity_factor,
    ranking_assignment,
    signal_probability_bounds,
    spec_complexity_factor,
)

__version__ = "1.0.0"

__all__ = [
    "DC",
    "OFF",
    "ON",
    "Assignment",
    "ErrorBounds",
    "FunctionSpec",
    "base_error_count",
    "border_bounds",
    "cfactor_assignment",
    "complete_assignment",
    "complexity_factor",
    "error_rate",
    "estimate_report",
    "exact_error_bounds",
    "expected_complexity_factor",
    "local_complexity_factor",
    "ranking_assignment",
    "signal_probability_bounds",
    "spec_complexity_factor",
    "__version__",
]

"""Declarative scenario registry: named benchmark × fault-model matrices.

See :mod:`repro.scenarios.registry` for the :class:`Scenario` data model
and registry, :mod:`repro.scenarios.builtin` for the shipped roster and
:mod:`repro.scenarios.runner` for execution and the
``BENCH_scenarios.json`` writer.  Importing this package registers every
built-in scenario.
"""

from .registry import (
    Scenario,
    describe_scenarios,
    get_scenario,
    register_scenario,
    registered_scenarios,
    scenario_names,
    scenario_specs,
)
from . import builtin as _builtin  # noqa: F401 - registers the roster
from .builtin import BUILTIN_SCENARIOS
from .runner import (
    SCENARIO_MATRIX_SCHEMA_VERSION,
    ScenarioResult,
    run_scenario,
    write_scenario_matrix,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "SCENARIO_MATRIX_SCHEMA_VERSION",
    "Scenario",
    "ScenarioResult",
    "describe_scenarios",
    "get_scenario",
    "register_scenario",
    "registered_scenarios",
    "run_scenario",
    "scenario_names",
    "scenario_specs",
    "write_scenario_matrix",
]

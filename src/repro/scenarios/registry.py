"""Declarative scenarios: benchmark set × fault model × policies.

A :class:`Scenario` names one reproducible slice of the evaluation
matrix — which benchmarks (Table-1 stand-ins, ``.pla`` paths, or
synthetic generator configs), which fault model, which assignment
policies, which synthesis objective.  Scenarios are plain data: running
one (:func:`repro.scenarios.runner.run_scenario`, CLI ``repro bench``)
hands each (benchmark, policy) point to the flow-point runner
:func:`repro.flows.sweep.run_points` and persists the results into the
``BENCH_scenarios.json`` matrix that ``repro obs regressions`` gates.

Scenarios register under a name with :func:`register_scenario`, in the
style of the fault-model and stage registries, so CLI and CI refer to
them as strings (``repro bench paper-single-bit``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.spec import FunctionSpec

__all__ = [
    "Scenario",
    "describe_scenarios",
    "get_scenario",
    "register_scenario",
    "scenario_names",
    "scenario_specs",
]


@dataclass(frozen=True)
class Scenario:
    """One named evaluation scenario (pure data, see module docstring).

    Attributes:
        name: registry key (``paper-single-bit``, ...).
        description: one line for ``repro bench --list``.
        benchmarks: Table-1 stand-in names or ``.pla`` paths.
        generated: synthetic benchmark configs, each a kwargs dict for
            :func:`repro.benchgen.generate_spec` (``name``, ``inputs``,
            ``outputs``, ``cf``, ``dc``, optional ``seed``).
        fault_model: declarative fault-model spec (name or dict, see
            :func:`repro.faults.create_fault_model`).
        policies: one dict per assignment policy point: ``policy`` plus
            that policy's own knob, if any (``fraction`` for ranking,
            ``threshold`` for cfactor).
        objective: synthesis objective for every point.
    """

    name: str
    description: str
    benchmarks: tuple[str, ...] = ()
    generated: tuple[Mapping[str, Any], ...] = ()
    fault_model: Any = "single_bit"
    policies: tuple[Mapping[str, Any], ...] = ({"policy": "conventional"},)
    objective: str = "area"

    def num_points(self) -> int:
        """Pipeline runs this scenario fans out."""
        return (len(self.benchmarks) + len(self.generated)) * len(self.policies)

    def fault_model_spec(self) -> dict[str, Any]:
        """The canonical fault-model spec dict (validates the model)."""
        from ..faults import create_fault_model

        return create_fault_model(self.fault_model).spec_dict()


_GENERATED_KEYS = {
    "name": "name", "inputs": "num_inputs", "outputs": "num_outputs",
    "cf": "target_cf", "dc": "dc_fraction",
}
"""Required generated-config keys -> the ``generate_spec`` parameters they
fill; any other key (``seed``, ...) passes through under its own name."""


def _check_benchmarks(scenario: Scenario) -> None:
    """Check that every benchmark of *scenario* can load.

    Raises:
        ValueError: for a token that is neither a Table-1 name nor a
            ``.pla`` path, and for a generated config that lacks a required
            key or has one :func:`repro.benchgen.generate_spec` does not take.
    """
    from ..benchgen import benchmark_names, generate_spec

    for token in scenario.benchmarks:
        if not token.endswith(".pla") and token not in benchmark_names():
            raise ValueError(
                f"scenario {scenario.name!r}: unknown benchmark {token!r} "
                f"(pass a .pla path or one of {benchmark_names()})"
            )
    optional = set(inspect.signature(generate_spec).parameters) - set(
        _GENERATED_KEYS.values()
    )
    for config in scenario.generated:
        label = f"scenario {scenario.name!r}: generated config {config.get('name')!r}"
        missing = [key for key in _GENERATED_KEYS if key not in config]
        if missing:
            raise ValueError(f"{label} lacks {missing}")
        unknown = sorted(set(config) - set(_GENERATED_KEYS) - optional)
        if unknown:
            raise ValueError(
                f"{label} has keys generate_spec does not take: {unknown} "
                f"(optional keys: {sorted(optional)})"
            )


def scenario_specs(scenario: Scenario) -> list[FunctionSpec]:
    """Load/generate every benchmark spec of *scenario*, in order.

    Raises:
        ValueError: for benchmarks :func:`register_scenario` rejects (as
            a catchable error, unlike the CLI loader's ``SystemExit``).
    """
    from ..benchgen import generate_spec, mcnc_benchmark
    from ..pla import read_pla

    _check_benchmarks(scenario)
    specs = [
        read_pla(token) if token.endswith(".pla") else mcnc_benchmark(token)
        for token in scenario.benchmarks
    ]
    for config in scenario.generated:
        specs.append(generate_spec(**{
            _GENERATED_KEYS.get(key, key): value for key, value in config.items()
        }))
    return specs


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Register *scenario* under its name.

    Raises:
        ValueError: on empty names, duplicate registration with
            different content, unknown objectives, policy points
            :func:`repro.flows.sweep.check_policy_point` rejects, missing
            or unloadable benchmarks, or a fault model the registry cannot
            resolve — configs fail at import time, not in a pool worker
            mid-run.
    """
    from ..flows.sweep import check_policy_point
    from ..pipeline.stages import OBJECTIVES

    if not scenario.name:
        raise ValueError("scenario needs a name")
    existing = _REGISTRY.get(scenario.name)
    if existing is not None and existing != scenario:
        raise ValueError(
            f"scenario name {scenario.name!r} already registered"
        )
    if scenario.objective not in OBJECTIVES:
        raise ValueError(
            f"scenario {scenario.name!r}: objective must be one of "
            f"{OBJECTIVES}, got {scenario.objective!r}"
        )
    if not scenario.policies:
        raise ValueError(f"scenario {scenario.name!r} has no policy points")
    for point in scenario.policies:
        try:
            check_policy_point(point)
        except ValueError as error:
            raise ValueError(f"scenario {scenario.name!r}: {error}") from None
    if not scenario.benchmarks and not scenario.generated:
        raise ValueError(f"scenario {scenario.name!r} has no benchmarks")
    _check_benchmarks(scenario)
    scenario.fault_model_spec()  # validates the fault-model spec
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """The registered scenario called *name*.

    Raises:
        KeyError: for unknown names, listing the registry.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{scenario_names()}"
        ) from None


def scenario_names() -> list[str]:
    """Registered scenario names, in registration order."""
    return list(_REGISTRY)


def describe_scenarios() -> list[dict[str, Any]]:
    """JSON-ready registry listing for ``repro info --json`` / ``--list``."""
    return [
        {
            "name": scenario.name,
            "description": scenario.description,
            "benchmarks": list(scenario.benchmarks)
            + [config.get("name", "?") for config in scenario.generated],
            "fault_model": scenario.fault_model_spec(),
            "policies": [dict(point) for point in scenario.policies],
            "objective": scenario.objective,
            "points": scenario.num_points(),
        }
        for scenario in _REGISTRY.values()
    ]

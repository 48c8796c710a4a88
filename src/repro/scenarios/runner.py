"""Run scenarios through the pipeline and persist the result matrix.

:func:`run_scenario` fans one scenario's (benchmark × policy) points
over the warm worker pool (:func:`repro.flows.sweep.parallel_map` — the
same executor the sweeps use, so persistent workers and merged worker
telemetry come for free) and returns a :class:`ScenarioResult`.

:func:`write_scenario_matrix` merges results into ``BENCH_scenarios.json``
(see ``docs/scenarios.md`` for the schema): one entry per scenario with
its rows, fault model and a per-scenario manifest (git revision, package
version, jobs).  Re-running a subset of scenarios updates only their
entries, so the matrix accumulates across invocations like the other
``BENCH_*.json`` files.

Quality points for the telemetry ledger prefix the benchmark with the
scenario name (``paper-single-bit:bench``): two scenarios measuring the
same benchmark under different fault models produce different —
individually gateable — rates, and the prefix keeps their
``repro obs regressions`` quality keys from colliding.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any

from ..flows.experiment import FlowResult
from ..flows.sweep import ProgressCallback, _run_flow_task, parallel_map
from ..obs import metrics as obs_metrics
from ..obs import span
from ..obs.manifest import git_revision
from ..perf.pool import resolve_jobs
from .registry import Scenario, get_scenario, scenario_specs

__all__ = [
    "SCENARIO_MATRIX_SCHEMA_VERSION",
    "ScenarioPoint",
    "ScenarioResult",
    "run_scenario",
    "write_scenario_matrix",
]

SCENARIO_MATRIX_SCHEMA_VERSION = 1
"""Layout version of ``BENCH_scenarios.json``."""


@dataclass(frozen=True)
class ScenarioPoint:
    """One measured (benchmark, policy) point of a scenario."""

    scenario: str
    benchmark: str
    policy: str
    parameter: float
    objective: str
    fraction_assigned: float
    area: float
    delay: float
    power: float
    gates: int
    literals: int
    error_rate: float

    @classmethod
    def from_flow(cls, scenario: str, result: FlowResult) -> "ScenarioPoint":
        return cls(
            scenario=scenario,
            benchmark=result.benchmark,
            policy=result.policy,
            parameter=result.parameter,
            objective=result.objective,
            fraction_assigned=result.fraction_assigned,
            area=result.area,
            delay=result.delay,
            power=result.power,
            gates=result.gates,
            literals=result.literals,
            error_rate=result.error_rate,
        )

    def to_dict(self) -> dict[str, Any]:
        """The matrix-row form (scenario carried by the parent entry)."""
        import dataclasses

        row = dataclasses.asdict(self)
        row.pop("scenario")
        return row

    def quality_dict(self) -> dict[str, Any]:
        """The ledger quality point, scenario-prefixed (module docstring)."""
        row = self.to_dict()
        row["benchmark"] = f"{self.scenario}:{self.benchmark}"
        return row


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produced."""

    scenario: Scenario
    fault_model: dict[str, Any]
    points: tuple[ScenarioPoint, ...]
    jobs: int

    def matrix_entry(self) -> dict[str, Any]:
        """This run as one ``BENCH_scenarios.json`` scenario entry."""
        from .. import __version__

        return {
            "description": self.scenario.description,
            "fault_model": self.fault_model,
            "objective": self.scenario.objective,
            "policies": [dict(point) for point in self.scenario.policies],
            "points": len(self.points),
            "rows": [point.to_dict() for point in self.points],
            "manifest": {
                "git_rev": git_revision(),
                "repro_version": __version__,
                "jobs": self.jobs,
                "benchmarks": list(self.scenario.benchmarks)
                + [config.get("name", "?") for config in self.scenario.generated],
            },
        }


def run_scenario(
    scenario: Scenario | str,
    *,
    jobs: int | str = 1,
    progress: ProgressCallback | None = None,
    checkpoint_dir: str | os.PathLike | None = None,
) -> ScenarioResult:
    """Run every (benchmark, policy) point of *scenario*.

    Args:
        scenario: a :class:`Scenario` or a registered scenario name.
        jobs: worker processes (``"auto"`` = CPU count, capped by the
            point count); points are independent pipeline runs, so the
            parallel result is bit-identical to the serial one.
        progress: optional ``callback(done, total)``.
        checkpoint_dir: content-addressed per-stage checkpoint store
            shared by all points (the fault model is folded into the
            ``measure`` stage's keys, so scenarios with different models
            share every stage up to it).

    Returns:
        A :class:`ScenarioResult`, points ordered benchmark-major.

    Raises:
        KeyError: for an unknown scenario name.
        ValueError: for invalid scenario contents (bad benchmark tokens,
            fault model, ...).
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    fault_spec = scenario.fault_model_spec()
    specs = scenario_specs(scenario)
    extra: dict[str, Any] = {"objective": scenario.objective,
                             "fault_model": fault_spec}
    if checkpoint_dir is not None:
        extra["checkpoint_dir"] = checkpoint_dir
    tasks = []
    for spec in specs:
        for point in scenario.policies:
            kwargs = dict(extra)
            for knob in ("fraction", "threshold"):
                if knob in point:
                    kwargs[knob] = point[knob]
            tasks.append((spec, point["policy"], kwargs))
    obs_metrics.counter("scenario.runs").inc()
    obs_metrics.counter("scenario.points").inc(len(tasks))
    with span(
        "scenario.run",
        scenario=scenario.name,
        points=len(tasks),
        jobs=jobs,
        fault_model=fault_spec.get("model"),
    ):
        results = parallel_map(_run_flow_task, tasks, jobs, progress=progress)
    points = tuple(
        ScenarioPoint.from_flow(scenario.name, result) for result in results
    )
    return ScenarioResult(
        scenario=scenario,
        fault_model=fault_spec,
        points=points,
        jobs=resolve_jobs(jobs, points=len(tasks)),
    )


def write_scenario_matrix(
    path: str | os.PathLike,
    results: list[ScenarioResult] | tuple[ScenarioResult, ...],
) -> dict[str, Any]:
    """Merge *results* into the scenario matrix at *path* and return it.

    Existing entries for other scenarios are preserved; entries for the
    scenarios in *results* are replaced.  A missing, unreadable or
    schema-mismatched file starts a fresh matrix rather than failing the
    run that produced fresh numbers.
    """
    matrix: dict[str, Any] = {
        "schema_version": SCENARIO_MATRIX_SCHEMA_VERSION,
        "scenarios": {},
    }
    try:
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
        if (
            isinstance(existing, dict)
            and existing.get("schema_version") == SCENARIO_MATRIX_SCHEMA_VERSION
            and isinstance(existing.get("scenarios"), dict)
        ):
            matrix["scenarios"].update(existing["scenarios"])
    except (OSError, ValueError):
        pass
    for result in results:
        matrix["scenarios"][result.scenario.name] = result.matrix_entry()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(matrix, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return matrix

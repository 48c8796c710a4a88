"""The perfbench workloads: seeded inputs and one timed pass each.

Every workload drives only public entry points of ``repro``
(``run_flow``, ``Pipeline(...).run``, ``fraction_sweep`` and
``run_scenario``).  A pass is planned as one :class:`Call` per
entry-point call; ``child.py`` times each call on its own and repeats
the pass.

Seeds.  Seed 0 uses the stand-ins exactly as the program builds them
(``mcnc_benchmark`` and ``generate_spec`` with fixed seeds).  Any other
seed relabels the inputs of every spec with a seeded permutation and
complements a seeded subset of them (an NP transform).  That keeps every
Table-1 property the generator targets (%DC, E[C^f], C^f) exactly, so
the truth tables differ from seed to seed while the work per point, and
hence the run-to-run spread of the timings, stays comparable.  The
scenario half of ``sweep-pool`` always uses the built-in scenarios.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import zlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

POOL_JOBS = 2
"""Worker processes of ``sweep-pool``; the other workloads are serial."""

TABLE1_OPTIMIZE = (
    ("test4", ("conventional",)),
    ("fout", ("conventional", "cfactor", "ranking")),
    ("bench", ("conventional", "cfactor", "ranking")),
)
TABLE1_ESPRESSO = tuple(
    (name, ("conventional", "cfactor"))
    for name in ("random3", "t4", "exam", "p3", "p1", "exp")
)
POLICY_KNOBS = {
    "conventional": {},
    "cfactor": {"threshold": 0.55},
    "ranking": {"fraction": 1.0},
}
COMPLETE_DC_STAGES = (
    "assign", "espresso", "optimize", "complete_dc", "map", "tune", "measure",
)
COMPLETE_DC_SPECS = 8
SWEEP_SPECS = {1: 0.7}
"""Generated sweep spec index -> target C^f (the spec is ``sweep{index}``)."""
SWEEP_FRACTIONS = tuple(i / 10 for i in range(11))


@dataclass
class Call:
    """One entry-point call of a pass: the points it covers and its outcome.

    ``func`` makes the call and returns one FlowResult (or ScenarioPoint)
    per label.  After :meth:`run`, ``results`` holds one FlowResult field
    dict per label, or is None when the call raised (every point of the
    call then counts as failed).
    """

    labels: list[str]
    func: Callable[[], list] | None = None
    results: list[dict[str, Any]] | None = None
    error: str | None = None

    def run(self) -> None:
        try:
            self.results = [flow_fields(result) for result in self.func()]
        except Exception as error:  # noqa: BLE001 - counted as failed points
            self.error = f"{type(error).__name__}: {error}"


@dataclass
class Workload:
    """A named point set: ``prepare(seed)`` builds its inputs during set-up
    and ``plan(inputs, workdir)`` lists the calls of one pass."""

    name: str
    jobs: int
    prepare: Callable[[int], Any]
    plan: Callable[[Any, str], list[Call]]

    def run_pass(self, inputs, workdir: str) -> list[Call]:
        """Run every call of one pass, in order."""
        calls = self.plan(inputs, workdir)
        for call in calls:
            call.run()
        return calls


def np_transform(spec, seed: int):
    """*spec* with inputs permuted and partly complemented, drawn from *seed*.

    Seed 0 returns *spec* itself.  The transform maps minterm ``m`` to
    ``perm(m) ^ mask``; it is a bijection on minterms that preserves
    Hamming adjacency, so %DC and C^f are unchanged.
    """
    if seed == 0:
        return spec
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    n = spec.num_inputs
    perm = rng.permutation(n)
    mask = int(rng.integers(0, 1 << n))
    minterms = np.arange(1 << n)
    target = np.zeros_like(minterms)
    for bit in range(n):
        target |= ((minterms >> bit) & 1) << int(perm[bit])
    target ^= mask
    phases = np.empty_like(spec.phases)
    phases[:, target] = spec.phases
    return spec.with_phases(phases)


def flow_fields(result) -> dict[str, Any]:
    """The FlowResult fields of *result* (a FlowResult or ScenarioPoint)."""
    fields = dataclasses.asdict(result)
    fields.pop("scenario", None)
    return fields


# ------------------------------------------------------------------ table 1


def _table1_prepare(roster):
    def prepare(seed: int):
        from repro.benchgen.mcnc import mcnc_benchmark

        return {name: np_transform(mcnc_benchmark(name), seed)
                for name, _ in roster}
    return prepare


def _table1_plan(roster):
    def plan(specs, workdir: str) -> list[Call]:
        from repro.flows.experiment import run_flow

        def flow(name, policy):
            return [run_flow(specs[name], policy, objective="delay",
                             **POLICY_KNOBS[policy])]

        return [Call([f"{name}/{policy}"], functools.partial(flow, name, policy))
                for name, policies in roster for policy in policies]
    return plan


# -------------------------------------------------------------- complete-dc


def _complete_dc_prepare(seed: int):
    from repro.benchgen.synthetic import generate_spec

    return [
        np_transform(
            generate_spec(f"nodal{i}", 8, 3, target_cf=0.45 + 0.02 * i,
                          dc_fraction=0.5, seed=60 + i),
            seed,
        )
        for i in range(COMPLETE_DC_SPECS)
    ]


def _complete_dc_plan(specs, workdir: str) -> list[Call]:
    from repro.flows.experiment import flow_result
    from repro.pipeline import Pipeline

    def pipeline(spec, policy):
        pipe = Pipeline(
            COMPLETE_DC_STAGES,
            name="complete-dc",
            params={"policy": policy, "objective": "area", **POLICY_KNOBS[policy]},
        )
        return [flow_result(pipe.run(spec=spec))]

    return [Call([f"{spec.name}/{policy}"], functools.partial(pipeline, spec, policy))
            for spec in specs for policy in ("conventional", "cfactor")]


# --------------------------------------------------------------- sweep-pool


def _sweep_prepare(seed: int):
    from repro.benchgen.synthetic import generate_spec
    from repro.scenarios import BUILTIN_SCENARIOS, scenario_specs

    for scenario in BUILTIN_SCENARIOS:
        scenario_specs(scenario)  # warms the stand-in cache
    return [
        np_transform(
            generate_spec(f"sweep{i}", 10, 8, target_cf=cf, dc_fraction=0.5,
                          seed=7 + i),
            seed,
        )
        for i, cf in SWEEP_SPECS.items()
    ]


def _scenario_labels(scenario) -> list[str]:
    names = list(scenario.benchmarks) + [
        config["name"] for config in scenario.generated
    ]
    return [
        f"{scenario.name}/{name}/{point['policy']}"
        + (f"@{point['fraction']:g}" if "fraction" in point else "")
        for name in names
        for point in scenario.policies
    ]


def _sweep_plan(specs, workdir: str) -> list[Call]:
    from repro.flows.sweep import fraction_sweep
    from repro.scenarios import BUILTIN_SCENARIOS, run_scenario

    def sweep(spec):
        return fraction_sweep(spec, list(SWEEP_FRACTIONS), objective="area",
                              jobs=POOL_JOBS)

    # One fresh checkpoint store for all scenarios: the first writes every
    # stage, the later ones restore assign..tune from it.
    checkpoints = os.path.join(workdir, "checkpoints")

    def scenario_points(scenario):
        return run_scenario(scenario, jobs=POOL_JOBS,
                            checkpoint_dir=checkpoints).points

    return [
        Call([f"{spec.name}/ranking@{fraction:g}" for fraction in SWEEP_FRACTIONS],
             functools.partial(sweep, spec))
        for spec in specs
    ] + [
        Call(_scenario_labels(scenario), functools.partial(scenario_points, scenario))
        for scenario in BUILTIN_SCENARIOS
    ]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("table1-optimize", 1, _table1_prepare(TABLE1_OPTIMIZE),
                 _table1_plan(TABLE1_OPTIMIZE)),
        Workload("table1-espresso", 1, _table1_prepare(TABLE1_ESPRESSO),
                 _table1_plan(TABLE1_ESPRESSO)),
        Workload("complete-dc", 1, _complete_dc_prepare, _complete_dc_plan),
        Workload("sweep-pool", POOL_JOBS, _sweep_prepare, _sweep_plan),
    )
}
"""The workloads in ``BENCHMARK.json`` order; README.md says why each exists."""

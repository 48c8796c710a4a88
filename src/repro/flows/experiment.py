"""End-to-end experiment flows: policy -> assignment -> synthesis -> metrics.

One :func:`run_flow` call reproduces one data point of the paper's
evaluation: apply a DC-assignment *policy* to a benchmark, push the result
through the conventional synthesis stack (ESPRESSO for the remaining DCs,
multi-level optimisation, mapping, objective tuning) and measure area,
delay, power, gate count and the input-error rate against the original
care set.

``run_flow`` is a thin driver over :mod:`repro.pipeline`: it assembles
the default ``assign`` → ``espresso`` → ``optimize`` → ``map`` →
``tune`` → ``measure`` pipeline, runs it, and packages the context into
a :class:`FlowResult`.  Pass ``checkpoint_dir`` to persist per-stage
outputs so an interrupted or re-parameterised run resumes from the last
valid stage instead of recomputing the whole flow — see
``docs/pipeline.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..core.cfactor import DEFAULT_THRESHOLD
from ..core.montecarlo import MonteCarloEstimate, estimate_error_rate
from ..core.spec import FunctionSpec
from ..obs import metrics as obs_metrics
from ..obs import span
from ..pipeline import DEFAULT_STAGES, FlowContext, Pipeline
from ..pipeline.stages import POLICIES, apply_policy
from ..sim.engine import packed_netlist_evaluator
from ..synth.netlist import MappedNetlist

__all__ = [
    "POLICIES",
    "POLICY_KNOBS",
    "FlowResult",
    "apply_policy",
    "flow_result",
    "run_flow",
    "relative_metrics",
    "sampled_error_rate",
]


POLICY_KNOBS = {"ranking": ("fraction", 1.0), "cfactor": ("threshold", DEFAULT_THRESHOLD)}
"""Each policy's one knob and its :func:`run_flow` default; the others take none."""


@dataclass(frozen=True)
class FlowResult:
    """One measured implementation.

    Attributes:
        benchmark: benchmark name.
        policy: assignment policy used.
        parameter: the policy's knob (fraction or threshold; 0 otherwise).
        objective: synthesis objective.
        fraction_assigned: fraction of DC entries decided for reliability.
        area / delay / power / gates / literals / error_rate: measurements.
    """

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


def flow_result(ctx: FlowContext) -> FlowResult:
    """Package a completed default-flow context as a :class:`FlowResult`.

    Raises:
        KeyError: when the context is missing flow artefacts (i.e. the
            ``assign`` ... ``measure`` stages have not all run).
    """
    spec = ctx.require("spec")
    assignment = ctx.require("assignment")
    synthesis = ctx.require("synthesis")
    policy = ctx.param("policy", "conventional")
    knob = POLICY_KNOBS.get(policy)
    return FlowResult(
        benchmark=spec.name,
        policy=policy,
        parameter=ctx.param(*knob) if knob else 0.0,
        objective=ctx.param("objective", "delay"),
        fraction_assigned=assignment.fraction_of(spec),
        area=synthesis.area,
        delay=synthesis.delay,
        power=synthesis.power,
        gates=synthesis.num_gates,
        literals=synthesis.literals,
        error_rate=synthesis.error_rate,
    )


def run_flow(
    spec: FunctionSpec,
    policy: str = "conventional",
    *,
    fraction: float = 1.0,
    threshold: float = DEFAULT_THRESHOLD,
    objective: str = "delay",
    fault_model=None,
    checkpoint_dir: str | os.PathLike | None = None,
) -> FlowResult:
    """Apply a policy and synthesise, returning all measurements.

    A thin driver over the default six-stage pipeline.  With
    ``checkpoint_dir`` set, per-stage outputs are persisted
    content-addressed, so repeated or interrupted runs skip every stage
    whose inputs and parameters are unchanged.

    ``fault_model`` selects the ``measure`` stage's error semantics — a
    registry name, spec dict or :class:`~repro.faults.FaultModel`
    (default: the paper's single-bit input flip, bit-identical to the
    pre-fault-model flow).  The spec is canonicalised before it enters
    the pipeline parameters so equivalent specs share checkpoints.
    """
    obs_metrics.counter("flow.runs").inc()
    if fault_model is not None:
        from ..faults import create_fault_model

        fault_model = create_fault_model(fault_model).spec_dict()
    pipe = Pipeline(
        DEFAULT_STAGES,
        name="flow",
        params={
            "policy": policy,
            "fraction": fraction,
            "threshold": threshold,
            "objective": objective,
            "fault_model": fault_model,
        },
        checkpoint=checkpoint_dir,
    )
    with span(
        "flow.run", benchmark=spec.name, policy=policy, objective=objective
    ):
        ctx = pipe.run(spec=spec)
    return flow_result(ctx)


def relative_metrics(result: FlowResult, baseline: FlowResult) -> dict[str, float]:
    """Normalise a result against the conventional baseline.

    Returns:
        ``area``, ``delay``, ``power``, ``error_rate`` ratios (baseline =
        1.0, as in Figs. 4-6) plus ``area_improvement_pct`` and
        ``error_improvement_pct`` (positive = better, as in Table 2).
    """

    def ratio(value: float, reference: float) -> float:
        if reference:
            return value / reference
        # A zero baseline happens for degenerate (wire-only) circuits: any
        # non-zero cost is an unbounded relative overhead.
        return float("inf") if value else 1.0

    area_ratio = ratio(result.area, baseline.area)
    error_ratio = ratio(result.error_rate, baseline.error_rate)
    return {
        "area": area_ratio,
        "delay": ratio(result.delay, baseline.delay),
        "power": ratio(result.power, baseline.power),
        "error_rate": error_ratio,
        "area_improvement_pct": 100.0 * (1.0 - area_ratio),
        "error_improvement_pct": 100.0 * (1.0 - error_ratio),
    }


def sampled_error_rate(
    netlist: MappedNetlist,
    *,
    samples: int = 20_000,
    rng: np.random.Generator | None = None,
) -> MonteCarloEstimate:
    """Monte-Carlo input-error rate of a mapped netlist, fully packed.

    The sampled counterpart of the exhaustive error rate reported by
    :func:`run_flow`: the whole trial loop — vector generation, circuit
    evaluation, disagreement counting — runs 64 vectors per uint64 word
    on the packed simulation engine, so it scales to netlists whose PI
    space cannot be enumerated.  Every input vector is an admissible
    error source, and the fault is the single-bit pin flip.

    Args:
        netlist: the mapped implementation to measure.
        samples: target number of admissible (vector, fault) trials
            (see :func:`repro.core.montecarlo.estimate_error_rate`).
        rng: random generator (default: fresh, seeded 0).
    """
    num_inputs = len(netlist.primary_inputs)
    obs_metrics.counter("flow.mc_runs").inc()
    with span("flow.mc_error_rate", netlist=len(netlist.gates), samples=samples):
        return estimate_error_rate(
            None,
            num_inputs,
            samples=samples,
            rng=rng,
            packed_evaluate=packed_netlist_evaluator(netlist),
        )

"""The built-in stages of the paper's evaluation flow.

Six stages make up the paper's evaluation flow, plus one opt-in stage:

``assign``
    Apply a DC-assignment policy (``conventional`` / ``ranking`` /
    ``cfactor`` / ``complete``) to the source spec.
``espresso``
    Two-level minimisation of the assigned spec (the conventional
    assignment of any remaining DCs) and construction of the
    multi-level logic network from the covers.
``optimize``
    Technology-independent multi-level optimisation (disable with the
    ``optimize=False`` flow parameter).
``complete_dc`` (opt-in; not part of the default recipe)
    SAT-complete internal don't-care reassignment of the network —
    simulation proposes per-node DC candidates, SAT queries on each
    node's cone confirm them exactly, and the cfactor policy re-decides
    the confirmed flexibility (see
    :func:`repro.synth.flexibility.reassign_complete_dcs`).  Inserted
    between ``optimize`` and ``map``; primary outputs are verified
    unchanged, so downstream results stay functionally identical.
``map``
    Subject-graph construction and area-driven tree covering against
    the generic 70 nm cell library.
``tune``
    Objective-specific tuning: critical-path upsizing for the ``delay``
    objective (no-op for ``power`` / ``area``).
``measure``
    Care-set equivalence self-check, static timing, power analysis and
    the exact error rate under the configured fault model (default:
    the paper's single-bit input flip against the *source* spec's care
    set; see :mod:`repro.faults`), packaged as a
    :class:`~repro.synth.compile_.SynthesisResult`.

The stage bodies are the canonical implementation: ``run_flow``,
``compile_spec`` and ``compile_network`` are thin drivers that assemble
these stages into a pipeline (see :mod:`repro.pipeline.pipeline`).
"""

from __future__ import annotations

import numpy as np

from ..core.assignment import Assignment
from ..core.cfactor import DEFAULT_THRESHOLD, cfactor_assignment
from ..core.ranking import complete_assignment, ranking_assignment
from ..core.spec import FunctionSpec
from ..espresso.minimize import minimize_spec
from ..obs import metrics as obs_metrics
from ..obs import span
from ..synth.library import generic_70nm_library
from ..synth.mapping import map_graph
from ..synth.network import LogicNetwork
from ..synth.optimize import optimize_network
from ..synth.power import power_analysis
from ..synth.subject import build_subject_graph
from ..synth.timing import static_timing, upsize_critical
from .context import FlowContext
from .stage import register_stage

__all__ = [
    "OBJECTIVES",
    "POLICIES",
    "AssignStage",
    "EspressoStage",
    "OptimizeStage",
    "CompleteDcStage",
    "MapStage",
    "TuneStage",
    "MeasureStage",
    "apply_policy",
    "validate_objective",
    "validate_policy",
]

POLICIES = ("conventional", "ranking", "cfactor", "complete")
"""The four assignment policies of the evaluation."""

OBJECTIVES = ("delay", "power", "area")
"""The synthesis objectives mirroring the paper's compile scripts."""


def apply_policy(
    spec: FunctionSpec,
    policy: str,
    *,
    fraction: float = 1.0,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[FunctionSpec, Assignment]:
    """Produce the (partially) assigned spec for a policy.

    Raises:
        ValueError: on unknown policy names.
    """
    validate_policy(policy)
    if policy == "conventional":
        assignment = Assignment()
    elif policy == "ranking":
        assignment = ranking_assignment(spec, fraction)
    elif policy == "cfactor":
        assignment = cfactor_assignment(spec, threshold)
    else:
        assignment = complete_assignment(spec)
    assigned = assignment.apply(spec) if len(assignment) else spec
    return assigned, assignment


def validate_policy(policy: str) -> None:
    """Reject unknown assignment policies.

    Raises:
        ValueError: when *policy* is not one of :data:`POLICIES`.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")


def validate_objective(objective: str) -> None:
    """Reject unknown synthesis objectives.

    Raises:
        ValueError: when *objective* is not one of :data:`OBJECTIVES`.
    """
    if objective not in OBJECTIVES:
        raise ValueError(
            f"objective must be one of {OBJECTIVES}, got {objective!r}"
        )


@register_stage
class AssignStage:
    """``spec`` -> ``assigned_spec`` + ``assignment`` via the policy."""

    name = "assign"
    inputs = ("spec",)
    outputs = ("assigned_spec", "assignment")
    params = ("policy", "fraction", "threshold")
    version = "1"

    def run(self, ctx: FlowContext) -> None:
        spec = ctx.require("spec")
        policy = ctx.param("policy", "conventional")
        with span("flow.apply_policy", policy=policy):
            assigned, assignment = apply_policy(
                spec,
                policy,
                fraction=ctx.param("fraction", 1.0),
                threshold=ctx.param("threshold", DEFAULT_THRESHOLD),
            )
        ctx.set("assigned_spec", assigned)
        ctx.set("assignment", assignment)


@register_stage
class EspressoStage:
    """``assigned_spec`` -> ``covers`` + ``network`` (two-level minimise)."""

    name = "espresso"
    inputs = ("assigned_spec",)
    outputs = ("covers", "network")
    params = ()
    version = "1"

    def run(self, ctx: FlowContext) -> None:
        assigned = ctx.require("assigned_spec")
        with span("synth.minimize"):
            minimized = minimize_spec(assigned)
        network = LogicNetwork.from_covers(
            list(assigned.input_names),
            minimized.covers,
            list(assigned.output_names),
        )
        ctx.set("covers", minimized)
        ctx.set("network", network)


@register_stage
class OptimizeStage:
    """Multi-level optimisation of ``network`` (in place)."""

    name = "optimize"
    inputs = ("network",)
    outputs = ("network",)
    params = ("optimize",)
    version = "1"

    def run(self, ctx: FlowContext) -> None:
        network = ctx.require("network")
        if ctx.param("optimize", True):
            with span("synth.optimize", nodes=len(network.nodes)):
                optimize_network(network)
        ctx.set("network", network)


@register_stage
class CompleteDcStage:
    """SAT-complete internal-DC reassignment of ``network`` (opt-in).

    Not part of :data:`~repro.pipeline.pipeline.DEFAULT_STAGES` — enable
    it by listing ``complete_dc`` between ``optimize`` and ``map`` in a
    pipeline config (``repro synth --config``).  Node by
    node, in topological order, it proposes DC candidates from random
    simulation, confirms them exactly with batched SAT queries on the
    node's cone, applies the cfactor assignment and rebuilds the cover;
    nodes exhausting the query or conflict budget fall back to the
    window-limited extractor of depth ``dc_window``.  The engine's other
    settings are the defaults of
    :func:`~repro.synth.flexibility.reassign_complete_dcs`, with the
    simulation seeded by 0.  Primary outputs are verified unchanged
    (exhaustive packed compare per rewrite up to 20 inputs, one final
    SAT miter above that), so every downstream artefact stays
    functionally identical.

    Emits ``sat.*`` / ``complete_dc.*`` counters (queries,
    confirmations, refutations, fallbacks, per-stage DC deltas against
    the window baseline) and a ``complete_dc_report`` artefact.
    """

    name = "complete_dc"
    inputs = ("network",)
    outputs = ("network", "complete_dc_report")
    params = ("dc_window",)
    version = "2"

    def run(self, ctx: FlowContext) -> None:
        from ..synth.flexibility import reassign_complete_dcs

        network = ctx.require("network")
        with span("pipeline.complete_dc", nodes=len(network.nodes)):
            report = reassign_complete_dcs(
                network,
                window_levels=ctx.param("dc_window", 2),
                rng=np.random.default_rng(0),
            )
        ctx.set("network", network)
        ctx.set("complete_dc_report", report)


@register_stage
class MapStage:
    """``network`` -> ``netlist`` via area-driven tree covering.

    Always maps onto :func:`~repro.synth.library.generic_70nm_library`,
    the one library the paper uses.

    Area-driven covering for every objective: a constant-load delay DP
    picks oversized cells whose pin capacitance slows the whole netlist
    down (measured), so the delay objective instead sizes the critical
    path of an area-optimal covering — the standard industrial recipe
    (see :class:`TuneStage`).
    """

    name = "map"
    inputs = ("network",)
    outputs = ("netlist",)
    params = ()
    version = "1"

    def run(self, ctx: FlowContext) -> None:
        network = ctx.require("network")
        with span("synth.subject_graph"):
            graph = build_subject_graph(network)
        with span("synth.map"):
            netlist = map_graph(graph, generic_70nm_library())
        ctx.set("netlist", netlist)


@register_stage
class TuneStage:
    """Objective tuning: upsize the critical path for ``delay``."""

    name = "tune"
    inputs = ("netlist",)
    outputs = ("netlist",)
    params = ("objective",)
    version = "1"

    def run(self, ctx: FlowContext) -> None:
        netlist = ctx.require("netlist")
        objective = ctx.param("objective", "delay")
        validate_objective(objective)
        if objective == "delay":
            with span("synth.upsize_critical"):
                upsize_critical(netlist)
        ctx.set("netlist", netlist)


@register_stage
class MeasureStage:
    """Self-check and measure ``netlist``, producing ``synthesis``.

    The equivalence self-check compares against the *assigned* spec (the
    function the netlist was synthesised from); the error rate draws its
    error sources from the care set of the *source* spec, exactly as the
    paper measures reliability-driven partial assignments.

    The ``fault_model`` parameter (a registry name or spec dict, see
    :mod:`repro.faults`) selects the error semantics and is folded into
    the checkpoint key.  Input-scope models measure the implemented
    truth table against the source care set; node-scope models (e.g.
    ``stuck_at``) measure the optimised logic network instead, where
    internal signals exist.  The default ``single_bit`` model delegates
    to :func:`repro.core.reliability.error_rate`.
    """

    name = "measure"
    inputs = ("netlist", "network", "assigned_spec", "spec")
    outputs = ("implemented", "synthesis")
    params = ("fault_model",)
    version = "2"

    def run(self, ctx: FlowContext) -> None:
        from ..faults import create_fault_model
        from ..synth.compile_ import SynthesisResult

        netlist = ctx.require("netlist")
        network = ctx.require("network")
        assigned = ctx.require("assigned_spec")
        source = ctx.get("spec", assigned)
        model = create_fault_model(ctx.param("fault_model", None) or "single_bit")
        with span("synth.selfcheck"):
            implemented = netlist.to_spec(name=f"{assigned.name}/impl")
            if not assigned.equivalent_within_dc(implemented):
                raise ValueError(
                    f"synthesis self-check failed: netlist does not "
                    f"implement {assigned.name}"
                )
        with span("synth.timing"):
            timing = static_timing(netlist)
        with span("synth.power"):
            power = power_analysis(netlist)
        obs_metrics.counter("synth.networks_compiled").inc()
        obs_metrics.counter("synth.gates_mapped").inc(netlist.num_gates)
        with span("synth.error_rate", fault_model=model.name):
            if model.scope == "node":
                measured_rate = model.network_error_rate(network)
            else:
                measured_rate = model.error_rate(implemented, spec=source)
        synthesis = SynthesisResult(
            netlist=netlist,
            area=netlist.area,
            delay=timing.delay,
            power=power.total,
            num_gates=netlist.num_gates,
            literals=network.num_literals,
            error_rate=measured_rate,
            implemented=implemented,
        )
        ctx.set("implemented", implemented)
        ctx.set("synthesis", synthesis)

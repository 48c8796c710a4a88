"""The synthesis facade: spec in, measured implementation out.

``compile_spec`` plays the role of the paper's Synopsys Design Compiler
runs: two-level minimisation (the conventional assignment of any remaining
DCs), multi-level optimisation, technology mapping to the generic 70 nm
library, objective-specific tuning, and measurement.  The objectives mirror
the paper's scripts:

* ``"delay"`` — maps for area, then sizes the critical path
  (``set_max_delay -to [all_outputs] 0``);
* ``"power"`` / ``"area"`` — maps for area with X1 cells (the paper notes
  ``compile -area_effort high`` and the power-optimised runs produce very
  similar implementations).

Every compile ends with an equivalence self-check of the mapped netlist
against the input spec's care set, so a miscompare anywhere in the stack
fails loudly instead of skewing experiment data.

Both entry points are thin drivers over :mod:`repro.pipeline`:
``compile_spec`` assembles the ``espresso`` → ``optimize`` → ``map`` →
``tune`` → ``measure`` stages and ``compile_network`` the suffix
starting at ``optimize`` — the stage bodies in
:mod:`repro.pipeline.stages` are the canonical implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.spec import FunctionSpec
from ..obs import span
from .netlist import MappedNetlist
from .network import LogicNetwork

__all__ = ["SynthesisResult", "compile_spec", "compile_network"]

_OBJECTIVES = ("delay", "power", "area")


@dataclass(frozen=True)
class SynthesisResult:
    """Everything the experiments measure about one implementation.

    Attributes:
        netlist: the mapped gate-level netlist.
        area: total cell area.
        delay: critical-path delay.
        power: total (dynamic + leakage) power.
        num_gates: cell instance count.
        literals: technology-independent literal count after optimisation.
        error_rate: exact error rate under the flow's fault model
            (default: the paper's single-bit input flip, with error
            sources drawn from the care set of the originally supplied
            spec — see :mod:`repro.faults`).
        implemented: the fully specified function of the netlist.
    """

    netlist: MappedNetlist
    area: float
    delay: float
    power: float
    num_gates: int
    literals: int
    error_rate: float
    implemented: FunctionSpec


def compile_network(
    network: LogicNetwork,
    spec: FunctionSpec,
    *,
    objective: str = "delay",
    optimize: bool = True,
) -> SynthesisResult:
    """Optimise, map and measure an existing network against *spec*.

    A thin driver over the ``optimize`` → ``map`` → ``tune`` →
    ``measure`` stage suffix; the error rate is the paper's single-bit
    input flip.

    Raises:
        ValueError: on unknown objectives or if the mapped netlist fails
            the care-set equivalence self-check.
    """
    from ..pipeline import Pipeline, validate_objective

    validate_objective(objective)
    pipe = Pipeline(
        ["optimize", "map", "tune", "measure"],
        name="compile-network",
        params={"objective": objective, "optimize": optimize},
    )
    ctx = pipe.run(spec=spec, assigned_spec=spec, network=network)
    return ctx.require("synthesis")


def compile_spec(
    spec: FunctionSpec,
    *,
    objective: str = "delay",
    source_spec: FunctionSpec | None = None,
) -> SynthesisResult:
    """Full flow from an (incompletely specified) function to measurements.

    Remaining DCs in *spec* are assigned conventionally by the ESPRESSO
    stage.  When *spec* is itself the result of a reliability-driven
    partial assignment, pass the *original* specification as
    ``source_spec`` so the error rate uses the original care set as its
    error-source distribution.  The error rate is the paper's
    single-bit input flip.
    """
    from ..pipeline import Pipeline, validate_objective

    source = source_spec or spec
    with span("synth.compile", name=spec.name, objective=objective):
        validate_objective(objective)
        pipe = Pipeline(
            ["espresso", "optimize", "map", "tune", "measure"],
            name="compile-spec",
            params={"objective": objective},
        )
        ctx = pipe.run(spec=source, assigned_spec=spec)
        return ctx.require("synthesis")

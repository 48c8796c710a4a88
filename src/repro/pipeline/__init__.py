"""The stage-graph pass manager behind the experiment flows.

The package decomposes the paper's fixed recipe — DC assignment →
ESPRESSO → multi-level optimisation → mapping → objective tuning →
measurement — into composable, checkpointable passes:

* :mod:`repro.pipeline.stage` — the :class:`Stage` protocol and the
  process-wide registry (``assign``, ``espresso``, ``optimize``,
  ``map``, ``tune``, ``measure``);
* :mod:`repro.pipeline.context` — :class:`FlowContext`, the typed
  artefact store stages read from and write to;
* :mod:`repro.pipeline.stages` — the built-in stages;
* :mod:`repro.pipeline.pipeline` — :class:`Pipeline`: wiring
  validation, execution with per-stage spans/metrics, declarative
  (JSON) configs;
* :mod:`repro.pipeline.checkpoint` — :class:`CheckpointStore`,
  content-addressed stage checkpoints enabling interrupted or
  re-parameterised runs to resume from the last valid stage output.

``run_flow``, ``compile_spec``, ``compile_network`` and the sweep
drivers are thin drivers over this package; ``repro synth`` executes
declarative configs directly.  See ``docs/pipeline.md``.
"""

from .checkpoint import CheckpointStore
from .context import FlowContext
from .pipeline import DEFAULT_STAGES, Pipeline, default_config, load_config
from .stage import (
    Stage,
    describe_stage,
    get_stage,
    register_stage,
    registered_stages,
    stage_names,
)
from .stages import (
    OBJECTIVES,
    POLICIES,
    apply_policy,
    validate_objective,
)

__all__ = [
    "CheckpointStore",
    "DEFAULT_STAGES",
    "FlowContext",
    "OBJECTIVES",
    "POLICIES",
    "Pipeline",
    "Stage",
    "apply_policy",
    "default_config",
    "describe_stage",
    "get_stage",
    "load_config",
    "register_stage",
    "registered_stages",
    "stage_names",
    "validate_objective",
]

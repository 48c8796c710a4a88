"""The pass manager: compose stages, run them, checkpoint between them.

A :class:`Pipeline` is an ordered list of registered stages executed
against one :class:`~repro.pipeline.context.FlowContext`.
Before running it validates the wiring — every stage's inputs must be
produced by an earlier stage or present in the initial context — so a
misordered config fails immediately with the offending stage named.

Checkpointing: give the pipeline a
:class:`~repro.pipeline.checkpoint.CheckpointStore` and every stage's
outputs are persisted under a content-addressed key chained from the
initial context fingerprint (see :func:`repro.perf.cache.stage_key`).
On the next run over the same store, stages whose whole producing
history is unchanged are *skipped*: their outputs load from disk, the
``pipeline.stages_skipped`` counter increments and the stage's span
carries ``cached=True`` — so an interrupted or re-parameterised sweep
resumes from the last valid stage output instead of recomputing the
whole flow.

Declarative configs: :meth:`Pipeline.from_config` builds a pipeline from
a plain dict (JSON-compatible)::

    {
      "name": "ranking-flow",
      "params": {"policy": "ranking", "fraction": 0.5, "objective": "area"},
      "stages": ["assign", "espresso", "optimize", "map", "tune", "measure"]
    }

Stage entries are registry names; every stage reads the one flat
``params`` dict.  ``repro synth --config`` executes such configs from
the command line.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Sequence

from ..obs import metrics as obs_metrics
from ..obs import span
from ..perf.cache import stage_key
from .checkpoint import CheckpointStore
from .context import FlowContext
from .stage import Stage, get_stage, params_fingerprint

__all__ = [
    "DEFAULT_STAGES",
    "Pipeline",
    "default_config",
    "load_config",
]

DEFAULT_STAGES = ("assign", "espresso", "optimize", "map", "tune", "measure")
"""The standard six-stage evaluation flow, in execution order."""


class Pipeline:
    """An ordered, validated, checkpointable sequence of stages.

    Args:
        stages: registry names, in execution order.
        name: label used in spans and ``repro synth`` output.
        params: the flow parameters every stage reads.
        checkpoint: optional store enabling stage-level resume; also
            accepts a directory path.
    """

    def __init__(
        self,
        stages: Sequence[str],
        *,
        name: str = "pipeline",
        params: dict[str, Any] | None = None,
        checkpoint: CheckpointStore | str | os.PathLike | None = None,
    ):
        self.name = name
        self.params = dict(params or {})
        if checkpoint is not None and not isinstance(checkpoint, CheckpointStore):
            checkpoint = CheckpointStore(checkpoint)
        self.checkpoint = checkpoint
        self.stages: list[Stage] = [get_stage(name) for name in stages]
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        seen: set[str] = set()
        for stage in self.stages:
            if stage.name in seen:
                raise ValueError(
                    f"stage {stage.name!r} appears twice in the pipeline"
                )
            seen.add(stage.name)

    # ------------------------------------------------------------- building

    @classmethod
    def from_config(
        cls,
        config: dict[str, Any],
        *,
        checkpoint: CheckpointStore | str | os.PathLike | None = None,
    ) -> "Pipeline":
        """Build a pipeline from a declarative (JSON-compatible) config.

        Raises:
            ValueError: on malformed configs (missing/empty ``stages``, or
                an entry that is not a stage name).
            KeyError: on unknown stage names.
        """
        if not isinstance(config, dict):
            raise ValueError(f"pipeline config must be a dict, got {type(config).__name__}")
        entries = config.get("stages")
        if not entries:
            raise ValueError("pipeline config needs a non-empty 'stages' list")
        for entry in entries:
            if not isinstance(entry, str):
                raise ValueError(
                    f"bad stage entry {entry!r}: expected a stage name; "
                    f"flow parameters go in the config's 'params'"
                )
        return cls(
            entries,
            name=str(config.get("name", "pipeline")),
            params=config.get("params") or {},
            checkpoint=checkpoint,
        )

    # ------------------------------------------------------------- running

    def validate(self, initial_keys: Sequence[str]) -> None:
        """Check stage wiring against the initially available artefacts.

        Raises:
            ValueError: naming the first stage whose inputs are neither
                initial artefacts nor outputs of an earlier stage.
        """
        available = set(initial_keys)
        for stage in self.stages:
            missing = [key for key in stage.inputs if key not in available]
            if missing:
                raise ValueError(
                    f"stage {stage.name!r} is missing inputs {missing}; "
                    f"available at that point: {sorted(available)}"
                )
            available.update(stage.outputs)

    def run(
        self, *, stop_after: str | None = None, **artifacts: Any
    ) -> FlowContext:
        """Execute the stages on *artifacts*, returning the final context.

        Args:
            stop_after: stop (successfully) after the named stage — the
                programmatic equivalent of an interrupted run, useful
                for staged debugging and warm-starting checkpoints.
            **artifacts: the initial artefacts, e.g. ``spec=...``.

        Raises:
            ValueError: on wiring errors or an unknown ``stop_after``.
        """
        ctx = FlowContext(self.params, **artifacts)
        if stop_after is not None and stop_after not in {s.name for s in self.stages}:
            raise ValueError(
                f"stop_after={stop_after!r} is not a stage of this pipeline"
            )
        self.validate(ctx.keys())
        obs_metrics.counter("pipeline.runs").inc()
        upstream = ctx.fingerprint() if self.checkpoint is not None else ""
        with span("pipeline.run", pipeline=self.name, stages=len(self.stages)):
            for stage in self.stages:
                cached_outputs = None
                key = ""
                if self.checkpoint is not None:
                    key = stage_key(
                        stage.name,
                        stage.version,
                        params_fingerprint(stage, ctx),
                        upstream,
                    )
                    upstream = key
                    cached_outputs = self.checkpoint.load(stage.name, key)
                if cached_outputs is not None:
                    with span("pipeline.stage", stage=stage.name, cached=True):
                        for out_key, value in cached_outputs.items():
                            ctx.set(out_key, value)
                    obs_metrics.counter("pipeline.stages_skipped").inc()
                else:
                    # Per-stage wall time is a metric, not just a span
                    # attribute, so the telemetry ledger gets stage
                    # timings from every run — tracing stays opt-in.
                    stage_start = time.perf_counter()
                    with span("pipeline.stage", stage=stage.name, cached=False):
                        stage.run(ctx)
                    obs_metrics.counter(
                        f"pipeline.stage_seconds.{stage.name}"
                    ).inc(time.perf_counter() - stage_start)
                    obs_metrics.counter(
                        f"pipeline.stage_runs.{stage.name}"
                    ).inc()
                    obs_metrics.counter("pipeline.stages_run").inc()
                    if self.checkpoint is not None:
                        self.checkpoint.store(
                            stage.name,
                            key,
                            {out: ctx.require(out) for out in stage.outputs},
                        )
                if stop_after == stage.name:
                    break
        return ctx


def default_config(
    policy: str = "conventional",
    *,
    fraction: float = 1.0,
    threshold: float | None = None,
    objective: str = "delay",
) -> dict[str, Any]:
    """The declarative config of the standard six-stage evaluation flow.

    The returned dict is JSON-serialisable; running it through
    :meth:`Pipeline.from_config` reproduces :func:`repro.flows.run_flow`
    bit-identically.
    """
    from ..core.cfactor import DEFAULT_THRESHOLD

    return {
        "name": "default-flow",
        "params": {
            "policy": policy,
            "fraction": fraction,
            "threshold": DEFAULT_THRESHOLD if threshold is None else threshold,
            "objective": objective,
        },
        "stages": list(DEFAULT_STAGES),
    }


def load_config(path: str | os.PathLike) -> dict[str, Any]:
    """Read a JSON pipeline config from *path*.

    Raises:
        ValueError: when the file is not valid JSON or not an object.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON pipeline config: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError("pipeline config must be a JSON object")
    return config

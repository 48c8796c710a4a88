"""The ``Stage`` protocol and the process-wide stage registry.

A *stage* is one composable unit of the synthesis flow: it names the
context keys it consumes (``inputs``) and produces (``outputs``), the
flow parameters that change its behaviour (``params``, which feed the
checkpoint key), and does its work in ``run(ctx)`` against a
:class:`~repro.pipeline.context.FlowContext`.

Stages register themselves under their name with :func:`register_stage`
so declarative pipeline configs — and ``repro synth --config`` — can
refer to them by string.  ``repro info --json`` lists the registry for
tooling.
"""

from __future__ import annotations

from typing import Any, Protocol, TypeVar, runtime_checkable

from ..perf.cache import digest_parts
from .context import FlowContext

__all__ = [
    "Stage",
    "describe_stage",
    "get_stage",
    "params_fingerprint",
    "register_stage",
    "registered_stages",
    "stage_names",
]


@runtime_checkable
class Stage(Protocol):
    """What a pipeline stage must provide.

    Attributes:
        name: registry name (``assign``, ``espresso``, ...).
        inputs: context keys the stage reads; the pipeline verifies each
            is produced by an earlier stage or present initially.
        outputs: context keys the stage writes; exactly these are saved
            to (and restored from) a checkpoint.
        params: flow parameter names that affect the stage's output —
            they are folded into its checkpoint key, so changing any of
            them invalidates this stage's checkpoints but not those of
            stages that ignore the parameter.
        version: bumped when the stage's semantics change, invalidating
            old checkpoints.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    params: tuple[str, ...]
    version: str

    def run(self, ctx: FlowContext) -> None:
        """Execute the stage, reading and writing *ctx* artefacts."""
        ...


def params_fingerprint(stage: Stage, ctx: FlowContext) -> str:
    """Digest of the ``repr`` of each parameter value *stage* depends on."""
    parts: list[bytes] = []
    for name in stage.params:
        parts.append(name.encode())
        parts.append(repr(ctx.param(name)).encode())
    return digest_parts(b"params", *parts)


_REGISTRY: dict[str, Stage] = {}

_S = TypeVar("_S")


def register_stage(cls: type[_S]) -> type[_S]:
    """Class decorator: instantiate and register a stage under its name.

    Raises:
        ValueError: if the name is already taken by a different class —
            duplicate registration is almost always an import mistake.
    """
    stage = cls()
    existing = _REGISTRY.get(stage.name)
    if existing is not None and type(existing) is not cls:
        raise ValueError(
            f"stage name {stage.name!r} already registered by "
            f"{type(existing).__name__}"
        )
    _REGISTRY[stage.name] = stage
    return cls


def describe_stage(stage: Stage) -> dict[str, Any]:
    """One JSON-ready dict describing *stage*.

    Carries the declared interface (name, inputs, outputs, params,
    version) plus ``summary`` — the first line of the stage class's
    docstring — so registry listings (``repro info --json``) are
    self-documenting.
    """
    doc = (type(stage).__doc__ or "").strip()
    summary = doc.splitlines()[0].strip() if doc else ""
    return {
        "name": stage.name,
        "inputs": list(stage.inputs),
        "outputs": list(stage.outputs),
        "params": list(stage.params),
        "version": stage.version,
        "summary": summary,
    }


def get_stage(name: str) -> Stage:
    """The registered stage called *name*.

    Raises:
        KeyError: for unknown names, listing the registry.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown stage {name!r}; registered stages: {stage_names()}"
        ) from None


def registered_stages() -> dict[str, Stage]:
    """Name-to-stage view of the registry (insertion order)."""
    return dict(_REGISTRY)


def stage_names() -> list[str]:
    """Registered stage names, in registration order."""
    return list(_REGISTRY)

"""The typed artefact store a pipeline's stages read from and write to.

A :class:`FlowContext` holds the artefacts of one flow execution under
well-known keys — the specs, the DC assignment, the minimised covers,
the logic network, the mapped netlist and the measured results — plus
the flow's parameter dictionary (policy, fraction, threshold, objective,
...).  Stages declare which keys they consume and produce; the
context enforces that only known keys of the expected types are stored,
so a mis-wired stage fails at the ``set`` call instead of corrupting a
downstream computation.

The context also provides the *fingerprint* that anchors checkpoint
keys: a content digest of the artefacts present before the first stage
runs (see :meth:`FlowContext.fingerprint` and
:mod:`repro.pipeline.checkpoint`).
"""

from __future__ import annotations

import pickle
from typing import Any, Iterator

from ..core.assignment import Assignment
from ..core.spec import FunctionSpec
from ..perf.cache import digest_parts

__all__ = ["FlowContext"]


def _artifact_types() -> dict[str, type]:
    # Imported lazily so the context module stays importable without
    # dragging the whole synthesis stack in at interpreter start.
    from ..espresso.minimize import MinimizedFunction
    from ..synth.compile_ import SynthesisResult
    from ..synth.flexibility import CompleteDcReport
    from ..synth.netlist import MappedNetlist
    from ..synth.network import LogicNetwork

    return {
        "spec": FunctionSpec,
        "assigned_spec": FunctionSpec,
        "assignment": Assignment,
        "covers": MinimizedFunction,
        "network": LogicNetwork,
        "netlist": MappedNetlist,
        "complete_dc_report": CompleteDcReport,
        "implemented": FunctionSpec,
        "synthesis": SynthesisResult,
    }


class FlowContext:
    """Artefacts and parameters of one flow execution.

    Args:
        params: flow parameters (``policy``, ``fraction``, ``threshold``,
            ``objective``, ``optimize``, ``fault_model``, ``dc_window``)
            consulted by stages via :meth:`param`.
        **artifacts: initial artefacts, e.g. ``spec=...``.

    Raises:
        KeyError: on unknown artefact keys.
        TypeError: on artefacts of the wrong type.
    """

    def __init__(self, params: dict[str, Any] | None = None, **artifacts: Any):
        self.params: dict[str, Any] = dict(params or {})
        self._store: dict[str, Any] = {}
        self._types = _artifact_types()
        for key, value in artifacts.items():
            self.set(key, value)

    # ------------------------------------------------------------ artefacts

    def set(self, key: str, value: Any) -> None:
        """Store *value* under the known artefact *key*.

        Raises:
            KeyError: if *key* is not a known artefact key.
            TypeError: if *value* is not of the key's declared type.
        """
        expected = self._types.get(key)
        if expected is None:
            raise KeyError(
                f"unknown context key {key!r}; known keys: "
                f"{sorted(self._types)}"
            )
        if not isinstance(value, expected):
            raise TypeError(
                f"context key {key!r} expects {expected.__name__}, "
                f"got {type(value).__name__}"
            )
        self._store[key] = value

    def get(self, key: str, default: Any = None) -> Any:
        """The artefact under *key*, or *default* when absent."""
        return self._store.get(key, default)

    def require(self, key: str) -> Any:
        """The artefact under *key*.

        Raises:
            KeyError: when the artefact has not been produced yet — the
                error names the missing key so a wiring bug reads as one.
        """
        try:
            return self._store[key]
        except KeyError:
            raise KeyError(
                f"context is missing artefact {key!r}; was its producing "
                f"stage run?"
            ) from None

    def __contains__(self, key: object) -> bool:
        return key in self._store

    def __iter__(self) -> Iterator[str]:
        return iter(self._store)

    def keys(self) -> list[str]:
        """Currently populated artefact keys."""
        return list(self._store)

    # ----------------------------------------------------------- parameters

    def param(self, name: str, default: Any = None) -> Any:
        """The flow parameter *name*, or *default* when unset."""
        return self.params.get(name, default)

    # ---------------------------------------------------------- fingerprint

    def fingerprint(self) -> str:
        """Content digest of the currently stored artefacts.

        Used as the root of the checkpoint key chain: two contexts with
        byte-identical artefacts (including names, which determine
        artefact labels downstream) share a fingerprint, so a resumed
        run finds the previous run's checkpoints; any content difference
        yields a different chain and a clean recompute.
        """
        parts: list[bytes] = []
        for key in sorted(self._store):
            parts.append(key.encode())
            parts.append(_artifact_digest(self._store[key]).encode())
        return digest_parts(b"context", *parts)


def _artifact_digest(value: Any) -> str:
    """A stable content digest of one artefact.

    Specs and assignments get explicit content digests; anything else
    falls back to its pickled bytes, which is stable within a Python
    version — a cross-version mismatch merely costs a checkpoint miss.
    """
    if isinstance(value, FunctionSpec):
        return digest_parts(
            b"spec",
            value.name.encode(),
            repr((value.input_names, value.output_names)).encode(),
            value.phases.tobytes(),
        )
    if isinstance(value, Assignment):
        return digest_parts(
            b"assignment", repr(sorted(value.decisions.items())).encode()
        )
    return digest_parts(b"pickle", pickle.dumps(value, protocol=4))

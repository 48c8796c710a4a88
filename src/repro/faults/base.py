"""The ``FaultModel`` protocol and the process-wide model registry.

The paper states its whole methodology against one fault model — a
single input pin flips — and until this package existed that assumption
was hard-wired into :mod:`repro.core.reliability`,
:mod:`repro.core.montecarlo` and the ``measure`` pipeline stage.  A
:class:`FaultModel` makes the fault model a first-class, swappable input
to the flow instead: every model answers the same two questions,

* **exact enumeration** — what is the implementation's error rate when
  every admissible (source, fault) pair is counted exhaustively?
* **packed Monte-Carlo sampling** — given a batch of packed input
  vectors, what XOR masks corrupt them the way this fault does?

Two *scopes* exist.  ``input`` models perturb primary-input vectors and
measure a :class:`~repro.core.spec.FunctionSpec` implementation
(:meth:`FaultModel.error_rate`); ``node`` models perturb internal
network signals and measure a :class:`~repro.synth.network.LogicNetwork`
(:meth:`FaultModel.network_error_rate`), riding the incremental
fanout-cone engine of :mod:`repro.sim.incremental`.

Models register themselves under a name with :func:`register_fault_model`
so declarative configs — pipeline parameters, scenario definitions,
``repro bench`` — can refer to them as either a bare string
(``"single_bit"``) or a spec dict (``{"model": "multibit", "k": 2}``)
resolved by :func:`create_fault_model`.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, TypeVar

import numpy as np

from ..core.spec import FunctionSpec
from ..core.truthtable import OFF, ON

__all__ = [
    "FaultModel",
    "create_fault_model",
    "describe_fault_models",
    "fault_model_names",
    "pattern_error_rate",
    "register_fault_model",
    "registered_fault_models",
]


class FaultModel:
    """Base class for fault models (see the module docstring).

    Attributes:
        name: registry key (``single_bit``, ``multibit``, ...).
        scope: ``"input"`` (perturbs primary-input vectors, measures a
            spec) or ``"node"`` (perturbs internal signals, measures a
            network).
        param_names: constructor keyword names, in declaration order —
            they round-trip through :meth:`spec_dict` /
            :func:`create_fault_model`.
    """

    name: str = ""
    scope: str = "input"
    param_names: tuple[str, ...] = ()

    # ------------------------------------------------------------ declarative

    def spec_dict(self) -> dict[str, Any]:
        """The canonical declarative form: ``{"model": name, **params}``.

        Deterministically ordered (``model`` first, then
        :attr:`param_names` in declaration order) so its ``repr`` is a
        stable checkpoint-fingerprint component.
        """
        spec: dict[str, Any] = {"model": self.name}
        for param in self.param_names:
            spec[param] = getattr(self, param)
        return spec

    # ------------------------------------------------------------ input scope

    def patterns(self, num_inputs: int) -> Iterable[int]:
        """The enumerable error patterns as input-index XOR bitmasks.

        Input-scope models define their exact semantics here: an error
        pattern with bit *j* set flips input *j*, and the model's exact
        error rate averages propagation over every (admissible source,
        pattern) pair — see :func:`pattern_error_rate`.
        """
        raise NotImplementedError(f"{self.name} does not enumerate patterns")

    def error_rate(
        self,
        impl: FunctionSpec,
        *,
        spec: FunctionSpec | None = None,
    ) -> float:
        """Exact mean error rate of *impl* under this model.

        Args:
            impl: the implemented (normally fully specified) function.
            spec: original specification whose care set defines the
                admissible error sources (default: *impl* itself).

        Returns:
            events / (patterns * 2**n), averaged over outputs — the
            probability that a uniformly random error pattern applied to
            a uniformly random admissible vector propagates.
        """
        self._require_scope("input")
        return pattern_error_rate(
            impl, list(self.patterns(impl.num_inputs)), spec=spec
        )

    def corruption_words(
        self, rng: np.random.Generator, num_inputs: int, count: int
    ) -> np.ndarray:
        """Packed XOR corruption masks for one Monte-Carlo batch.

        Args:
            rng: the trial loop's generator (models must draw *only*
                from it, so estimates are reproducible under a seed).
            num_inputs: circuit input count (mask rows).
            count: number of vectors in the batch.

        Returns:
            ``(num_inputs, num_words(count))`` uint64 masks; XOR-ing
            them onto packed input vectors injects one sampled fault per
            vector.
        """
        raise NotImplementedError(f"{self.name} does not sample input masks")

    # ------------------------------------------------------------- node scope

    def node_difference(self, sim, name: str) -> np.ndarray:
        """One packed word row: bit *v* set iff injecting the fault at
        node *name* changes some primary output on vector *v*.

        Args:
            sim: a live :class:`~repro.sim.incremental.IncrementalNetworkSim`.
            name: the internal signal the fault is injected on.
        """
        raise NotImplementedError(f"{self.name} is not a node-scope model")

    def network_error_rate(self, network, *, source_mask=None) -> float:
        """Exact error rate of *network* under this node-scope model."""
        raise NotImplementedError(f"{self.name} is not a node-scope model")

    def estimate_network_error_rate(
        self, network, *, samples: int = 4096, rng=None
    ):
        """Monte-Carlo error-rate estimate of *network* under this model."""
        raise NotImplementedError(f"{self.name} is not a node-scope model")

    # -------------------------------------------------------------- plumbing

    def _require_scope(self, scope: str) -> None:
        if self.scope != scope:
            raise ValueError(
                f"fault model {self.name!r} has scope {self.scope!r}, "
                f"but a {scope!r}-scope operation was requested"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(
            f"{param}={getattr(self, param)!r}" for param in self.param_names
        )
        return f"{type(self).__name__}({params})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultModel):
            return NotImplemented
        return self.spec_dict() == other.spec_dict()

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.spec_dict().items())))


def pattern_error_rate(
    impl: FunctionSpec,
    patterns: list[int],
    *,
    spec: FunctionSpec | None = None,
) -> float:
    """Exact error rate of *impl* over an explicit error-pattern set.

    The shared enumeration kernel behind every input-scope model: for
    each pattern (an input-index XOR bitmask) the whole truth table is
    reindexed at once (``phases[..., idx ^ error]``), opposite-phase
    changes landing on admissible sources are counted, and the rate is
    ``events / (patterns * 2**n)`` averaged over outputs.

    Raises:
        ValueError: on an empty pattern set.
    """
    if not patterns:
        raise ValueError("at least one error pattern is required")
    source = (spec or impl).care_mask()
    phases = impl.phases
    idx = np.arange(impl.num_minterms)
    events = np.zeros(phases.shape[:-1], dtype=np.int64)
    for error in patterns:
        nb = phases[..., idx ^ error]
        flips = ((phases == ON) & (nb == OFF)) | ((phases == OFF) & (nb == ON))
        events += np.count_nonzero(flips & source, axis=-1)
    return float(np.mean(events / (len(patterns) * impl.num_minterms)))


_REGISTRY: dict[str, type[FaultModel]] = {}

_M = TypeVar("_M", bound=FaultModel)


def register_fault_model(cls: type[_M]) -> type[_M]:
    """Class decorator: register a fault model under its ``name``.

    Raises:
        ValueError: when the name is empty or already taken by a
            different class (duplicate registration is almost always an
            import mistake).
    """
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a registry name")
    existing = _REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"fault model name {cls.name!r} already registered by "
            f"{existing.__name__}"
        )
    _REGISTRY[cls.name] = cls
    return cls


def create_fault_model(spec: Any) -> FaultModel:
    """Resolve a declarative fault-model spec to a model instance.

    Accepts a :class:`FaultModel` instance (returned as is), a bare
    registry name (``"single_bit"``), or a spec dict of the
    :meth:`FaultModel.spec_dict` shape (``{"model": "multibit", "k": 2}``).

    Raises:
        ValueError: on unknown names, malformed specs or bad parameters.
    """
    if isinstance(spec, FaultModel):
        return spec
    if isinstance(spec, str):
        name, kwargs = spec, {}
    elif isinstance(spec, Mapping):
        kwargs = dict(spec)
        name = kwargs.pop("model", None)
        if not isinstance(name, str):
            raise ValueError(
                f"fault-model spec dict needs a 'model' name: {spec!r}"
            )
    else:
        raise ValueError(
            f"fault-model spec must be a name, dict or FaultModel, "
            f"got {type(spec).__name__}"
        )
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown fault model {name!r}; registered: {fault_model_names()}"
        )
    try:
        return cls(**kwargs)
    except TypeError as error:
        raise ValueError(f"bad parameters for fault model {name!r}: {error}") from None


def registered_fault_models() -> dict[str, type[FaultModel]]:
    """Name-to-class view of the registry (registration order)."""
    return dict(_REGISTRY)


def fault_model_names() -> list[str]:
    """Registered fault-model names, in registration order."""
    return list(_REGISTRY)


def describe_fault_models() -> list[dict[str, Any]]:
    """JSON-ready registry listing for ``repro info --json``."""
    listing = []
    for name, cls in _REGISTRY.items():
        doc = (cls.__doc__ or "").strip()
        listing.append(
            {
                "name": name,
                "scope": cls.scope,
                "params": list(cls.param_names),
                "summary": doc.splitlines()[0].strip() if doc else "",
            }
        )
    return listing

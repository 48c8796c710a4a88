"""Input-scope fault models: single-bit, multi-bit and burst flips.

All three perturb the primary-input vector; they differ only in *which*
bits flip together.  Exact rates come from the shared pattern-enumeration
kernel (:func:`~repro.faults.base.pattern_error_rate`); Monte-Carlo
corruption masks are generated directly in the packed domain so the
sampling loop of :func:`repro.core.montecarlo.estimate_error_rate` never
leaves uint64 words.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..core.spec import FunctionSpec
from ..sim import packed as pk
from .base import FaultModel, register_fault_model

__all__ = ["SingleBitInput", "MultiBitInput", "BurstInput"]


@register_fault_model
class SingleBitInput(FaultModel):
    """The paper's fault model: exactly one input pin flips.

    The default model of every flow, and of
    :func:`repro.core.montecarlo.estimate_error_rate`.  Exact numbers
    delegate to :mod:`repro.core.reliability` (the neighbour-view
    implementation).
    """

    name = "single_bit"
    scope = "input"
    param_names = ()

    def patterns(self, num_inputs: int) -> list[int]:
        return [1 << bit for bit in range(num_inputs)]

    def error_rate(
        self,
        impl: FunctionSpec,
        *,
        spec: FunctionSpec | None = None,
    ) -> float:
        from ..core.reliability import error_rate

        return error_rate(impl, spec=spec)

    def corruption_words(
        self, rng: np.random.Generator, num_inputs: int, count: int
    ) -> np.ndarray:
        # One pin index per vector.  Keep the draw order: seeded
        # Monte-Carlo estimates depend on it.
        pins = rng.integers(num_inputs, size=count)
        onehot = np.zeros((count, num_inputs), dtype=bool)
        onehot[np.arange(count), pins] = True
        return pk.pack_matrix(onehot)


@register_fault_model
class MultiBitInput(FaultModel):
    """Exactly *k* input pins flip simultaneously.

    The exact rate enumerates all ``C(n, k)`` flip patterns; ``k=1``
    reduces to :class:`SingleBitInput`'s numbers.  Monte-Carlo masks
    draw a uniform random *k*-subset of pins per vector.
    """

    name = "multibit"
    scope = "input"
    param_names = ("k",)

    def __init__(self, k: int = 2):
        if int(k) != k or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        self.k = int(k)

    def _check_width(self, num_inputs: int) -> None:
        if self.k > num_inputs:
            raise ValueError(
                f"distance must lie in [1, {num_inputs}], got {self.k}"
            )

    def patterns(self, num_inputs: int) -> list[int]:
        self._check_width(num_inputs)
        masks = []
        for bits in combinations(range(num_inputs), self.k):
            error = 0
            for bit in bits:
                error |= 1 << bit
            masks.append(error)
        return masks

    def corruption_words(
        self, rng: np.random.Generator, num_inputs: int, count: int
    ) -> np.ndarray:
        self._check_width(num_inputs)
        # A uniform k-subset per vector: rank random scores and keep the
        # k smallest positions.
        scores = rng.random((count, num_inputs))
        chosen = np.argsort(scores, axis=1)[:, : self.k]
        mask = np.zeros((count, num_inputs), dtype=bool)
        np.put_along_axis(mask, chosen, True, axis=1)
        return pk.pack_matrix(mask)


@register_fault_model
class BurstInput(FaultModel):
    """A contiguous burst of *width* adjacent input pins flips.

    Models spatially correlated upsets (a particle strike spanning
    neighbouring wires): the error patterns are the ``n - width + 1``
    runs of *width* adjacent pins (no wraparound), each equally likely.
    ``width=1`` reduces to :class:`SingleBitInput`'s numbers.
    """

    name = "burst"
    scope = "input"
    param_names = ("width",)

    def __init__(self, width: int = 2):
        if int(width) != width or width < 1:
            raise ValueError(
                f"width must be a positive integer, got {width!r}"
            )
        self.width = int(width)

    def _check_width(self, num_inputs: int) -> None:
        if self.width > num_inputs:
            raise ValueError(
                f"burst width must lie in [1, {num_inputs}], got {self.width}"
            )

    def patterns(self, num_inputs: int) -> list[int]:
        self._check_width(num_inputs)
        run = (1 << self.width) - 1
        return [run << start for start in range(num_inputs - self.width + 1)]

    def corruption_words(
        self, rng: np.random.Generator, num_inputs: int, count: int
    ) -> np.ndarray:
        self._check_width(num_inputs)
        starts = rng.integers(num_inputs - self.width + 1, size=count)
        columns = starts[:, None] + np.arange(self.width)[None, :]
        mask = np.zeros((count, num_inputs), dtype=bool)
        np.put_along_axis(mask, columns, True, axis=1)
        return pk.pack_matrix(mask)

"""The :class:`FunctionSpec` — a multi-output incompletely specified function.

A :class:`FunctionSpec` bundles the phase arrays of every output with input
and output names, and is the object all assignment algorithms, synthesis
flows and estimators in :mod:`repro` operate on.  It is immutable by
convention: transformation methods return new specs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .truthtable import (
    DC,
    OFF,
    ON,
    care_mask,
    num_inputs_of,
    validate_phases,
)

__all__ = ["FunctionSpec"]


def _default_names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


@dataclass(frozen=True)
class FunctionSpec:
    """An incompletely specified multi-output Boolean function.

    Attributes:
        phases: ``uint8`` array of shape ``(num_outputs, 2**num_inputs)``
            holding :data:`~repro.core.truthtable.OFF` /
            :data:`~repro.core.truthtable.ON` /
            :data:`~repro.core.truthtable.DC` codes.  Bit ``j`` of a minterm
            index is the value of input ``j``.
        name: optional benchmark name used in reports.
        input_names: one label per input (default ``x0, x1, ...``).
        output_names: one label per output (default ``y0, y1, ...``).
    """

    phases: np.ndarray
    name: str = "f"
    input_names: tuple[str, ...] = field(default=())
    output_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        arr = validate_phases(np.atleast_2d(np.asarray(self.phases, dtype=np.uint8)))
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "phases", arr)
        if not self.input_names:
            object.__setattr__(self, "input_names", _default_names("x", self.num_inputs))
        if not self.output_names:
            object.__setattr__(self, "output_names", _default_names("y", self.num_outputs))
        if len(self.input_names) != self.num_inputs:
            raise ValueError(
                f"{len(self.input_names)} input names for {self.num_inputs} inputs"
            )
        if len(self.output_names) != self.num_outputs:
            raise ValueError(
                f"{len(self.output_names)} output names for {self.num_outputs} outputs"
            )

    # ------------------------------------------------------------------ shape

    @property
    def num_inputs(self) -> int:
        """Number of function inputs ``n``."""
        return num_inputs_of(self.phases)

    @property
    def num_outputs(self) -> int:
        """Number of function outputs."""
        return self.phases.shape[0]

    @property
    def num_minterms(self) -> int:
        """``2**num_inputs``."""
        return self.phases.shape[1]

    # ----------------------------------------------------------- constructors

    @classmethod
    def from_sets(
        cls,
        num_inputs: int,
        on_sets: list[list[int]] | list[set[int]],
        dc_sets: list[list[int]] | list[set[int]] | None = None,
        *,
        name: str = "f",
        input_names: tuple[str, ...] = (),
        output_names: tuple[str, ...] = (),
    ) -> "FunctionSpec":
        """Build a spec from explicit on- and DC-minterm lists per output.

        Minterms not listed in either set fall into the off-set.

        Raises:
            ValueError: if a minterm appears in both the on- and DC-set of
                the same output, or is out of range.
        """
        num_outputs = len(on_sets)
        if dc_sets is None:
            dc_sets = [[] for _ in range(num_outputs)]
        if len(dc_sets) != num_outputs:
            raise ValueError("on_sets and dc_sets must have the same length")
        size = 1 << num_inputs
        phases = np.full((num_outputs, size), OFF, dtype=np.uint8)
        for out, (on_set, dc_set) in enumerate(zip(on_sets, dc_sets)):
            on = np.fromiter(on_set, dtype=np.int64) if len(on_set) else np.empty(0, np.int64)
            dc = np.fromiter(dc_set, dtype=np.int64) if len(dc_set) else np.empty(0, np.int64)
            for arr in (on, dc):
                if arr.size and (arr.min() < 0 or arr.max() >= size):
                    raise ValueError(f"minterm out of range for {num_inputs} inputs")
            overlap = np.intersect1d(on, dc)
            if overlap.size:
                raise ValueError(
                    f"output {out}: minterms {overlap.tolist()} in both on- and DC-set"
                )
            phases[out, on] = ON
            phases[out, dc] = DC
        return cls(phases, name=name, input_names=input_names, output_names=output_names)

    @classmethod
    def from_truth_table(
        cls,
        values: np.ndarray,
        *,
        name: str = "f",
        input_names: tuple[str, ...] = (),
        output_names: tuple[str, ...] = (),
    ) -> "FunctionSpec":
        """Build a fully specified spec from boolean/0-1 output values."""
        arr = np.atleast_2d(np.asarray(values))
        phases = np.where(arr.astype(bool), ON, OFF).astype(np.uint8)
        return cls(phases, name=name, input_names=input_names, output_names=output_names)

    # ------------------------------------------------------------------- sets

    def output_phases(self, output: int) -> np.ndarray:
        """Phase array (read-only) of a single output."""
        return self.phases[output]

    def on_set(self, output: int) -> np.ndarray:
        """Sorted minterm indices of the on-set of *output*."""
        return np.flatnonzero(self.phases[output] == ON)

    def dc_set(self, output: int) -> np.ndarray:
        """Sorted minterm indices of the don't-care set of *output*."""
        return np.flatnonzero(self.phases[output] == DC)

    def care_mask(self) -> np.ndarray:
        """Boolean array, True where the output is specified (per output)."""
        return care_mask(self.phases)

    def dc_fraction(self) -> float:
        """Overall fraction of (output, minterm) entries that are DC.

        This is the "%DC" column of Table 1 (as a fraction, not percent).
        """
        return float(np.count_nonzero(self.phases == DC)) / self.phases.size

    @property
    def is_fully_specified(self) -> bool:
        """True when no output has any DC minterm left."""
        return not bool(np.any(self.phases == DC))

    # ---------------------------------------------------------------- editing

    def with_phases(self, phases: np.ndarray, *, suffix: str = "") -> "FunctionSpec":
        """Return a copy of this spec with the phase array replaced."""
        return replace(
            self,
            phases=phases,
            name=self.name + suffix,
        )

    def assigned(self, values: np.ndarray, *, suffix: str = "/full") -> "FunctionSpec":
        """Return the fully specified spec obtained from 0/1 *values*.

        *values* must agree with this spec on its care set; only DC entries
        may be freely chosen.  This is the canonical way to turn a synthesis
        result back into a spec for error-rate measurement.

        Raises:
            ValueError: if *values* flips any care minterm.
        """
        arr = np.atleast_2d(np.asarray(values)).astype(bool)
        if arr.shape != self.phases.shape:
            raise ValueError(f"value shape {arr.shape} != spec shape {self.phases.shape}")
        new_phases = np.where(arr, ON, OFF).astype(np.uint8)
        care = self.care_mask()
        if np.any(new_phases[care] != self.phases[care]):
            raise ValueError("assignment changes a care minterm")
        return self.with_phases(new_phases, suffix=suffix)

    def single_output(self, output: int) -> "FunctionSpec":
        """Extract one output as a standalone single-output spec."""
        return FunctionSpec(
            self.phases[output : output + 1],
            name=f"{self.name}.{self.output_names[output]}",
            input_names=self.input_names,
            output_names=(self.output_names[output],),
        )

    # ------------------------------------------------------------- evaluation

    def evaluate(self, minterm: int) -> np.ndarray:
        """Phase codes of every output at *minterm*."""
        return self.phases[:, minterm].copy()

    def truth_values(self) -> np.ndarray:
        """Boolean output values of a fully specified spec.

        Raises:
            ValueError: if any DC minterm remains.
        """
        if not self.is_fully_specified:
            raise ValueError("spec still has don't-care minterms")
        return self.phases == ON

    # ------------------------------------------------------------- comparison

    def equivalent_within_dc(self, other: "FunctionSpec") -> bool:
        """True if *other* agrees with this spec on this spec's care set.

        *other* is typically a fully specified implementation; equivalence
        "within the DC set" is the correctness criterion for any synthesis
        result derived from this spec.
        """
        if other.phases.shape != self.phases.shape:
            return False
        care = self.care_mask()
        return bool(np.all(other.phases[care] == self.phases[care]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionSpec):
            return NotImplemented
        return (
            self.phases.shape == other.phases.shape
            and bool(np.all(self.phases == other.phases))
        )

    def __hash__(self) -> int:
        return hash((self.phases.shape, self.phases.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FunctionSpec(name={self.name!r}, inputs={self.num_inputs}, "
            f"outputs={self.num_outputs}, dc={self.dc_fraction():.1%})"
        )

"""Mapped gate-level netlists.

A :class:`MappedNetlist` is the output of technology mapping: a list of
cell instances in topological order over named signals, plus constant
signals and output bindings.  It knows how to evaluate itself exhaustively
over the primary-input space, which powers both the equivalence self-checks
and the exact switching-activity power analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.spec import FunctionSpec
from .library import Cell, Library

__all__ = ["GateInstance", "MappedNetlist"]


@dataclass
class GateInstance:
    """One placed cell: ``output = cell(inputs...)`` (pin order = cell.pins)."""

    cell: Cell
    output: str
    inputs: list[str]

    def __post_init__(self) -> None:
        if len(self.inputs) != self.cell.num_pins:
            raise ValueError(
                f"{self.cell.name} instance {self.output!r}: "
                f"{len(self.inputs)} nets for {self.cell.num_pins} pins"
            )


@dataclass
class MappedNetlist:
    """A technology-mapped combinational netlist.

    Attributes:
        library: the library the cells come from.
        primary_inputs: PI signal names.
        gates: instances in topological (fanin-first) order.
        outputs: map output name -> driving signal (a gate output, a PI, or
            a constant signal).
        constants: constant-valued signals (for outputs tied high/low).
    """

    library: Library
    primary_inputs: list[str]
    gates: list[GateInstance] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    constants: dict[str, bool] = field(default_factory=dict)

    # ---------------------------------------------------------------- metrics

    @property
    def area(self) -> float:
        """Total cell area."""
        return sum(gate.cell.area for gate in self.gates)

    @property
    def num_gates(self) -> int:
        """Cell instance count (the paper's "Gates" column)."""
        return len(self.gates)

    def leakage(self) -> float:
        """Total static leakage."""
        return sum(gate.cell.leakage for gate in self.gates)

    # -------------------------------------------------------------- structure

    def driver_of(self) -> dict[str, GateInstance]:
        """Map from signal name to the gate driving it."""
        return {gate.output: gate for gate in self.gates}

    def loads(self) -> dict[str, float]:
        """Capacitive load on every signal (pins + wire + PO pins)."""
        lib = self.library
        load: dict[str, float] = {}
        for name in self.primary_inputs:
            load[name] = 0.0
        for name in self.constants:
            load[name] = 0.0
        for gate in self.gates:
            load[gate.output] = 0.0
        for gate in self.gates:
            for signal in gate.inputs:
                load[signal] = load.get(signal, 0.0) + gate.cell.pin_cap + lib.wire_cap
        for signal in self.outputs.values():
            load[signal] = load.get(signal, 0.0) + lib.output_cap
        return load

    # -------------------------------------------------------------- evaluation

    def evaluate(self) -> dict[str, np.ndarray]:
        """Boolean arrays of every signal over the full PI space.

        Runs on the packed bit-parallel engine (:mod:`repro.sim`) and
        unpacks at the boundary; bit-identical to
        :meth:`evaluate_reference`.
        """
        from ..sim import engine as sim_engine
        from ..sim import packed as sim_packed

        size = 1 << len(self.primary_inputs)
        packed = sim_engine.netlist_values(self)
        return {
            name: sim_packed.unpack_bool(words, size)
            for name, words in packed.items()
        }

    def evaluate_reference(self) -> dict[str, np.ndarray]:
        """Byte-per-vector reference implementation of :meth:`evaluate`
        (the packed engine's test oracle)."""
        size = 1 << len(self.primary_inputs)
        idx = np.arange(size, dtype=np.int64)
        values: dict[str, np.ndarray] = {}
        for position, name in enumerate(self.primary_inputs):
            values[name] = ((idx >> position) & 1).astype(bool)
        for name, constant in self.constants.items():
            values[name] = np.full(size, constant, dtype=bool)
        for gate in self.gates:
            pins = [values[signal] for signal in gate.inputs]
            values[gate.output] = gate.cell.evaluate(pins)
        return values

    def to_spec(self, *, name: str = "netlist") -> FunctionSpec:
        """The function implemented, as a fully specified spec."""
        values = self.evaluate()
        table = np.vstack([values[signal] for signal in self.outputs.values()])
        return FunctionSpec.from_truth_table(
            table,
            name=name,
            input_names=tuple(self.primary_inputs),
            output_names=tuple(self.outputs.keys()),
        )

    def implements(self, spec: FunctionSpec) -> bool:
        """True when the netlist matches *spec* on its care set."""
        return spec.equivalent_within_dc(self.to_spec())

    def cell_histogram(self) -> dict[str, int]:
        """Instance count per cell name."""
        histogram: dict[str, int] = {}
        for gate in self.gates:
            histogram[gate.cell.name] = histogram.get(gate.cell.name, 0) + 1
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MappedNetlist({len(self.primary_inputs)} PIs, {self.num_gates} gates, "
            f"area {self.area:.1f})"
        )

"""Don't-care assignment records.

An :class:`Assignment` is a partial map from ``(output, minterm)`` pairs to
0/1 decisions.  The assignment algorithms of this package produce
assignments; :meth:`Assignment.apply` turns a spec plus an assignment into a
new (less incompletely specified) spec, which then flows into conventional
synthesis for the remaining DCs.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .spec import FunctionSpec
from .truthtable import DC, OFF, ON

__all__ = ["Assignment"]


@dataclass
class Assignment:
    """A partial 0/1 assignment of DC minterms.

    Attributes:
        decisions: map from ``(output, minterm)`` to ``ON`` or ``OFF``.
    """

    decisions: dict[tuple[int, int], int] = field(default_factory=dict)

    def set(self, output: int, minterm: int, value: int) -> None:
        """Record the decision *value* (ON/OFF) for one DC minterm.

        Raises:
            ValueError: if *value* is not ON or OFF, or the entry was
                already decided differently.
        """
        if value not in (ON, OFF):
            raise ValueError(f"assignment value must be ON or OFF, got {value}")
        key = (output, minterm)
        previous = self.decisions.get(key)
        if previous is not None and previous != value:
            raise ValueError(
                f"conflicting decisions for output {output}, minterm {minterm}: "
                f"already decided {previous}, now {value}"
            )
        self.decisions[key] = value

    def __len__(self) -> int:
        return len(self.decisions)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.decisions)

    def items(self) -> Iterable[tuple[tuple[int, int], int]]:
        """Iterate over ``((output, minterm), value)`` pairs."""
        return self.decisions.items()

    def merged(self, other: "Assignment") -> "Assignment":
        """Union of two assignments; neither operand is modified.

        Every decision of *other* goes through :meth:`set`, so a minterm
        decided ``ON`` by one operand and ``OFF`` by the other raises
        instead of silently letting *other* win.

        Raises:
            ValueError: on conflicting decisions, naming the output,
                minterm and both values.
        """
        result = Assignment(dict(self.decisions))
        for (output, minterm), value in other.items():
            result.set(output, minterm, value)
        return result

    def apply(self, spec: FunctionSpec) -> FunctionSpec:
        """Return *spec*, renamed ``<name>/assigned``, with the recorded
        decisions baked in.

        Raises:
            ValueError: if a decision targets a care minterm (the algorithms
                only ever assign DC minterms, so this signals a logic bug).
        """
        phases = np.array(spec.phases, dtype=np.uint8)
        for (output, minterm), value in self.decisions.items():
            if phases[output, minterm] != DC:
                raise ValueError(
                    f"decision for care minterm {minterm} of output {output}"
                )
            phases[output, minterm] = value
        return spec.with_phases(phases, suffix="/assigned")

    def fraction_of(self, spec: FunctionSpec) -> float:
        """Fraction of *spec*'s DC entries this assignment decides."""
        total = int(np.count_nonzero(spec.phases == DC))
        return len(self.decisions) / total if total else 0.0

"""Static timing analysis and critical-path gate sizing.

Delay model: a gate's output arrival is the worst input-pin arrival plus
the cell's intrinsic delay plus ``resistance * load`` on its output net;
primary inputs are driven through the library's ``input_drive`` resistance.
``upsize_critical`` is the "compile for delay" post-pass: it walks the
critical path swapping cells for higher-drive variants while that improves
the clock.

Both entry points work on a :class:`_TimingGraph` built per call.  Sizing
keeps its loads and arrivals across trials and rounds: a trial swap
recomputes only the loads of the swapped gate's input signals, re-times in
gate order the gates whose arrival can have moved (stopping early once a
primary output is too late for the trial to win), and is undone from a
log.  Every load is summed in :meth:`MappedNetlist.loads`'s order and every
arrival comes from the one formula in :meth:`_TimingGraph.retime`, so each
float, and so each sizing choice, equals that of a from-scratch pass.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .library import Cell
from .netlist import MappedNetlist

__all__ = ["TimingReport", "static_timing", "upsize_critical"]

_MAX_ROUNDS = 25
"""Sizing rounds (one committed swap each) ``upsize_critical`` runs at most."""


@dataclass(frozen=True)
class TimingReport:
    """Arrival times and the critical path.

    Attributes:
        delay: worst primary-output arrival time.
        arrivals: arrival time per signal.
        critical_path: signal names from a PI to the worst PO.
    """

    delay: float
    arrivals: dict[str, float]
    critical_path: tuple[str, ...]


class _TimingGraph:
    """A netlist's loads and arrivals over integer signals.

    Signals are numbered primary inputs first, then constants, then gate
    outputs in gate order, so gate order is signal order.  ``cells[s]`` is
    the cell driving signal *s* (None for a PI or constant), ``fanins[s]``
    its input signals in pin order, ``readers[s]`` the gates reading *s*
    (one entry per pin, in gate order) and ``po_count[s]`` the number of
    primary outputs bound to it.
    """

    def __init__(self, netlist: MappedNetlist):
        library = netlist.library
        gates = netlist.gates
        self.names = [
            *netlist.primary_inputs, *netlist.constants, *(gate.output for gate in gates)
        ]
        index = {name: s for s, name in enumerate(self.names)}
        self.num_pis = len(netlist.primary_inputs)
        self.first_gate = len(self.names) - len(gates)
        self.cells: list[Cell | None] = [None] * self.first_gate + [gate.cell for gate in gates]
        self.fanins = [[] for _ in range(self.first_gate)] + [
            [index[name] for name in gate.inputs] for gate in gates
        ]
        self.readers: list[list[int]] = [[] for _ in self.names]
        for s in range(self.first_gate, len(self.names)):
            for fanin in self.fanins[s]:
                self.readers[fanin].append(s)
        self.outputs = [index[name] for name in netlist.outputs.values()]
        self.po_count = [0] * len(self.names)
        for s in self.outputs:
            self.po_count[s] += 1
        self.wire_cap = library.wire_cap
        self.output_cap = library.output_cap
        self.input_drive = library.input_drive
        self.load = [self.load_of(s) for s in range(len(self.names))]
        self.arrival = [0.0] * len(self.names)
        for s in range(len(self.names)):
            self.arrival[s] = self.retime(s)

    def load_of(self, s: int) -> float:
        """Signal *s*'s load, summed in :meth:`MappedNetlist.loads`'s order."""
        cells = self.cells
        load = 0.0
        for reader in self.readers[s]:
            load = load + cells[reader].pin_cap + self.wire_cap
        for _ in range(self.po_count[s]):
            load = load + self.output_cap
        return load

    def retime(self, s: int) -> float:
        """Signal *s*'s arrival from its fanins' arrivals and its load."""
        if s < self.first_gate:
            return self.input_drive * self.load[s] if s < self.num_pis else 0.0
        arrival = self.arrival
        pin = 0.0
        for fanin in self.fanins[s]:
            if arrival[fanin] >= pin:
                pin = arrival[fanin]
        cell = self.cells[s]
        return pin + cell.intrinsic + cell.resistance * self.load[s]

    def delay(self) -> float:
        """The worst primary-output arrival (0.0 without outputs)."""
        return max(map(self.arrival.__getitem__, self.outputs), default=0.0)

    def critical_path(self) -> list[int]:
        """Signals from a source to the first worst PO (in ``outputs``
        order), following at each gate the last fanin that sets its pin
        arrival."""
        if not self.outputs:
            return []
        arrival = self.arrival
        path: list[int] = []
        cursor = max(self.outputs, key=arrival.__getitem__)
        while cursor >= 0:
            path.append(cursor)
            worst, pin = -1, 0.0
            for fanin in self.fanins[cursor]:
                if arrival[fanin] >= pin:
                    worst, pin = fanin, arrival[fanin]
            cursor = worst
        path.reverse()
        return path

    def resize(self, s: int, cell: Cell, log: list, bound: float = math.inf) -> bool:
        """Drive gate signal *s* with *cell* and bring every load and
        arrival up to date, appending each overwritten value to *log*.

        Only the loads of the gate's input signals change.  Their drivers
        and the gate itself are re-timed in signal (= gate) order, so each
        gate is re-timed after its fanins, and propagation stops wherever
        a recomputed arrival equals the stored one.

        Returns:
            False, with the update left half done, as soon as a primary
            output's arrival reaches *bound*: the delay can then no longer
            fall below it.
        """
        cells, load, arrival = self.cells, self.load, self.arrival
        readers, po_count = self.readers, self.po_count
        log.append((cells, s, cells[s]))
        cells[s] = cell
        queue = [s]
        queued = {s}
        for fanin in set(self.fanins[s]):
            new = self.load_of(fanin)
            if new != load[fanin]:
                log.append((load, fanin, load[fanin]))
                load[fanin] = new
                queued.add(fanin)
                heapq.heappush(queue, fanin)
        while queue:
            t = heapq.heappop(queue)
            new = self.retime(t)
            if po_count[t] and new >= bound:
                return False
            if new != arrival[t]:
                log.append((arrival, t, arrival[t]))
                arrival[t] = new
                for reader in readers[t]:
                    if reader not in queued:
                        queued.add(reader)
                        heapq.heappush(queue, reader)
        return True

    @staticmethod
    def undo(log: list) -> None:
        """Put back every value :meth:`resize` logged, newest first."""
        for values, s, old in reversed(log):
            values[s] = old


def static_timing(netlist: MappedNetlist) -> TimingReport:
    """Compute arrival times over the netlist (topological, load-aware)."""
    graph = _TimingGraph(netlist)
    return TimingReport(
        graph.delay(),
        dict(zip(graph.names, graph.arrival)),
        tuple(graph.names[s] for s in graph.critical_path()),
    )


def upsize_critical(netlist: MappedNetlist) -> MappedNetlist:
    """Greedy critical-path gate sizing (in place; returns the netlist).

    Each round walks the current critical path and tries every drive
    variant of every gate on it, keeping the single swap that improves the
    worst delay the most.  Stops when no swap helps or after
    :data:`_MAX_ROUNDS` rounds.
    """
    graph = _TimingGraph(netlist)
    variants: dict[str, list[Cell]] = {}
    for _ in range(_MAX_ROUNDS):
        best_delay = graph.delay()
        best_swap: tuple[int, Cell] | None = None
        for s in graph.critical_path():
            original = graph.cells[s]
            if original is None:
                continue
            if original.name not in variants:
                variants[original.name] = netlist.library.variants_of(original)
            for variant in variants[original.name]:
                if variant.name == original.name:
                    continue
                log: list = []
                if graph.resize(s, variant, log, best_delay - 1e-12):
                    trial = graph.delay()
                    if trial < best_delay - 1e-12:
                        best_delay = trial
                        best_swap = (s, variant)
                graph.undo(log)
        if best_swap is None:
            return netlist
        s, variant = best_swap
        graph.resize(s, variant, [])
        netlist.gates[s - graph.first_gate].cell = variant
    return netlist

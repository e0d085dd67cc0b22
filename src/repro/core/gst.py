"""Gate Sequence Table (GST): the timing IR that exposes idle windows.

The paper (Section 4.4.2, Figure 11) converts the compiled executable into a
Gate Sequence Table that "slices the compiled circuit into layers and captures
the data dependencies between the qubits in time", using physical gate
latencies to timestamp the start and end of every gate.  Querying the GST
yields the exact idle period of any qubit, which is where DD sequences are
inserted.

This module provides:

* :class:`ScheduledGate` — a gate with absolute start/end times in ns;
* :class:`IdleWindow` — a per-qubit gap between two operations;
* :class:`GateSequenceTable` — ASAP/ALAP scheduling of a circuit given a gate
  duration model, idle-window extraction, concurrent-CNOT queries and a text
  rendering of the layer table shown in Figure 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate

__all__ = ["ScheduledGate", "IdleWindow", "GateSequenceTable", "DurationModel"]

#: Callable mapping a gate to its duration in nanoseconds.
DurationModel = Callable[[Gate], float]


@dataclass(frozen=True)
class ScheduledGate:
    """A gate placed on the absolute time axis."""

    gate: Gate
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.gate.qubits

    @property
    def is_cnot(self) -> bool:
        return self.gate.is_two_qubit

    @property
    def link(self) -> Optional[Tuple[int, int]]:
        """Canonical (sorted) qubit pair for two-qubit gates, else ``None``."""
        if not self.gate.is_two_qubit:
            return None
        a, b = self.gate.qubits
        return (a, b) if a <= b else (b, a)

    def overlap(self, start: float, end: float) -> float:
        """Duration of the intersection with the interval ``[start, end]``."""
        return max(0.0, min(self.end, end) - max(self.start, start))


@dataclass(frozen=True)
class IdleWindow:
    """A period during which one qubit performs no operation."""

    qubit: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlap(self, start: float, end: float) -> float:
        return max(0.0, min(self.end, end) - max(self.start, start))


def _merge_spans(spans: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Sort ``(start, end)`` spans and merge overlapping/adjacent ones."""
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(spans):
        if merged and start <= merged[-1][1] + 1e-9:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


class GateSequenceTable:
    """Timestamped schedule of a compiled circuit.

    Args:
        circuit: the compiled circuit (already mapped to physical qubits).
        duration_model: callable giving each gate's latency in ns — typically
            :meth:`repro.hardware.backend.Backend.gate_duration`.
        method: ``"alap"`` (default, matching production compilers that
            schedule as late as possible to shorten idle windows) or ``"asap"``.
    """

    def __init__(
        self,
        circuit: QuantumCircuit,
        duration_model: DurationModel,
        method: str = "alap",
    ) -> None:
        if method not in ("asap", "alap"):
            raise ValueError("method must be 'asap' or 'alap'")
        self._circuit = circuit
        self._duration_model = duration_model
        self._method = method
        self._scheduled: List[ScheduledGate] = []
        self._cnot_index: Optional[Tuple[np.ndarray, ...]] = None
        self._schedule()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _schedule(self) -> None:
        durations = []
        gates = []
        for gate in self._circuit:
            if gate.is_barrier:
                gates.append(gate)
                durations.append(0.0)
                continue
            explicit = gate.duration
            durations.append(
                float(explicit) if explicit is not None else float(self._duration_model(gate))
            )
            gates.append(gate)

        if self._method == "asap":
            starts = self._asap_starts(gates, durations)
        else:
            starts = self._alap_starts(gates, durations)

        scheduled = []
        for index, (gate, start, duration) in enumerate(zip(gates, starts, durations)):
            if gate.is_barrier:
                continue
            scheduled.append((start, index, ScheduledGate(gate=gate, start=start, duration=duration)))
        # Ties on start time (zero-duration virtual RZ gates) must preserve the
        # original program order or same-qubit dependencies would be violated.
        scheduled.sort(key=lambda item: (item[0], item[1]))
        self._scheduled = [entry[2] for entry in scheduled]

    @staticmethod
    def _asap_starts(gates: Sequence[Gate], durations: Sequence[float]) -> List[float]:
        free: Dict[int, float] = {}
        starts: List[float] = []
        for gate, duration in zip(gates, durations):
            start = max((free.get(q, 0.0) for q in gate.qubits), default=0.0)
            starts.append(start)
            for q in gate.qubits:
                free[q] = start + duration
        return starts

    def _alap_starts(self, gates: Sequence[Gate], durations: Sequence[float]) -> List[float]:
        # Schedule the reversed circuit ASAP, then mirror the time axis.
        reversed_gates = list(reversed(gates))
        reversed_durations = list(reversed(durations))
        rev_starts = self._asap_starts(reversed_gates, reversed_durations)
        total = max(
            (s + d for s, d in zip(rev_starts, reversed_durations)), default=0.0
        )
        starts = [total - (s + d) for s, d in zip(rev_starts, reversed_durations)]
        return list(reversed(starts))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def circuit(self) -> QuantumCircuit:
        return self._circuit

    @property
    def method(self) -> str:
        return self._method

    @property
    def scheduled_gates(self) -> Tuple[ScheduledGate, ...]:
        return tuple(self._scheduled)

    @property
    def total_duration(self) -> float:
        """Program latency: end time of the last scheduled instruction."""
        return max((s.end for s in self._scheduled), default=0.0)

    def busy_intervals(self, qubit: int) -> List[Tuple[float, float]]:
        """Merged intervals during which a qubit performs an operation."""
        return _merge_spans(
            [(s.start, s.end) for s in self._scheduled if qubit in s.qubits]
        )

    def idle_windows(
        self, qubit: Optional[int] = None, min_duration: float = 0.0
    ) -> List[IdleWindow]:
        """Idle windows between a qubit's first and last operation.

        Leading idle time (before a qubit's first gate) is excluded: compilers
        initialise qubits as late as possible, and a qubit parked in |0> does
        not decohere, so DD there is pointless (Section 2.4's late
        initialisation discussion).

        The all-qubits form groups the schedule per qubit in a single pass —
        one per-qubit ``busy_intervals`` scan each would make device-scale
        compilation O(qubits × gates).
        """
        if qubit is not None:
            intervals_of = {qubit: self.busy_intervals(qubit)}
        else:
            spans: Dict[int, List[Tuple[float, float]]] = {}
            for s in self._scheduled:
                span = (s.start, s.end)
                for q in s.qubits:
                    spans.setdefault(q, []).append(span)
            intervals_of = {q: _merge_spans(spans[q]) for q in sorted(spans)}
        windows: List[IdleWindow] = []
        for q, intervals in intervals_of.items():
            for (a_start, a_end), (b_start, b_end) in zip(intervals, intervals[1:]):
                gap = b_start - a_end
                if gap > max(min_duration, 1e-9):
                    windows.append(IdleWindow(qubit=q, start=a_end, end=b_start))
        windows.sort(key=lambda w: (w.start, w.qubit))
        return windows

    def active_qubits(self) -> List[int]:
        """Qubits that appear in at least one scheduled instruction."""
        used = set()
        for s in self._scheduled:
            used.update(s.qubits)
        return sorted(used)

    def idle_fraction(self, qubit: int) -> float:
        """Fraction of the total program latency a qubit spends idle.

        Matches the "Idle Fraction" columns of Table 1: idle time between the
        qubit's first and last operation divided by the program latency.
        """
        total = self.total_duration
        if total <= 0:
            return 0.0
        idle = sum(w.duration for w in self.idle_windows(qubit))
        return idle / total

    def total_idle_time(self, qubit: Optional[int] = None) -> float:
        """Total idle nanoseconds, for one qubit or summed over all."""
        return sum(w.duration for w in self.idle_windows(qubit))

    def average_idle_time(self) -> float:
        """Average idle time per active qubit (the Table 4 column), in ns.

        Computed from one all-qubits ``idle_windows`` pass, accumulated per
        qubit in window-start order and summed over qubits in sorted order —
        the identical floating-point operations, in the identical order, as
        the per-qubit ``total_idle_time`` loop it replaces, without that
        loop's O(qubits × gates) rescan of the schedule.
        """
        qubits = self.active_qubits()
        if not qubits:
            return 0.0
        totals = {q: 0.0 for q in qubits}
        for window in self.idle_windows():
            totals[window.qubit] += window.duration
        return sum(totals[q] for q in qubits) / len(qubits)

    def concurrent_cnots(
        self, start: float, end: float, exclude_qubit: Optional[int] = None
    ) -> List[Tuple[Tuple[int, int], float]]:
        """CNOT links active during ``[start, end]`` and their overlap in ns.

        Used by the noise model to amplify a spectator qubit's idling errors
        while two-qubit gates run in its vicinity.

        Called once per idle window when a program is compiled, so a naive
        scan over every scheduled gate makes compilation O(windows × gates) —
        minutes at 255+ qubits.  Instead the CNOT subschedule is indexed once,
        sorted by start time; a query bisects to the only slice that can
        overlap ``[start, end]`` (a CNOT starting before ``start - max_dur``
        has necessarily ended, one starting at/after ``end`` has not begun)
        and evaluates just that slice.  The sort is stable, so iterating the
        slice preserves schedule order, which keeps the floating-point
        summation order — and therefore the exact result — of the original
        scan; CNOTs the slice bounds drop all have overlap ≤ 0 and never
        contributed.
        """
        if self._cnot_index is None:
            cnots = [s for s in self._scheduled if s.is_cnot]
            starts = np.array([s.start for s in cnots], dtype=float)
            order = np.argsort(starts, kind="stable")
            self._cnot_index = (
                starts[order],
                np.array([s.end for s in cnots], dtype=float)[order],
                np.array([s.qubits[0] for s in cnots], dtype=np.int64)[order],
                np.array([s.qubits[1] for s in cnots], dtype=np.int64)[order],
                [cnots[i].link for i in order],
                float(max((s.duration for s in cnots), default=0.0)),
            )
        starts, ends, qubit_a, qubit_b, links, max_duration = self._cnot_index
        if not len(links):
            return []
        lo = int(np.searchsorted(starts, start - max_duration, side="left"))
        hi = int(np.searchsorted(starts, end, side="left"))
        if lo >= hi:
            return []
        overlaps = np.minimum(ends[lo:hi], end) - np.maximum(starts[lo:hi], start)
        hits = overlaps > 1e-9
        if exclude_qubit is not None:
            hits &= (qubit_a[lo:hi] != exclude_qubit) & (qubit_b[lo:hi] != exclude_qubit)
        active: Dict[Tuple[int, int], float] = {}
        for i in np.nonzero(hits)[0]:
            link = links[lo + i]
            active[link] = active.get(link, 0.0) + float(overlaps[i])
        return sorted(active.items())

    def gates_on_qubit(self, qubit: int) -> List[ScheduledGate]:
        return [s for s in self._scheduled if qubit in s.qubits]

    # ------------------------------------------------------------------
    # Rendering (Figure 11 style)
    # ------------------------------------------------------------------

    def layers(self, resolution: float = 1e-9) -> List[Tuple[float, List[ScheduledGate]]]:
        """Group scheduled gates by identical start time."""
        grouped: Dict[float, List[ScheduledGate]] = {}
        for s in self._scheduled:
            key = round(s.start / max(resolution, 1e-12)) * resolution
            grouped.setdefault(key, []).append(s)
        return sorted(grouped.items())

    def render(self) -> str:
        """Human-readable table: one row per start time, one column per qubit."""
        qubits = self.active_qubits()
        header = "Layer | Time (ns) | " + " | ".join(f"Q{q}" for q in qubits)
        lines = [header, "-" * len(header)]
        for layer_index, (time, gates) in enumerate(self.layers(), start=1):
            cells = {q: "Idle" for q in qubits}
            for s in gates:
                text = s.gate.name.upper()
                for q in s.qubits:
                    cells[q] = text
            row = f"{layer_index:5d} | {time:9.1f} | " + " | ".join(
                cells[q] for q in qubits
            )
            lines.append(row)
        return "\n".join(lines)

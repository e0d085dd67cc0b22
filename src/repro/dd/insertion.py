"""DD insertion: filling idle windows of selected qubits with pulse trains.

A *DD assignment* is the subset of program qubits on which DD is enabled — the
bitstrings the paper enumerates ("000000" = no qubit, "111111" = all qubits,
Figure 8).  Given a Gate Sequence Table, an assignment and a protocol, this
module produces a :class:`DDPlan`: one pulse train per eligible idle window,
which can be materialised into an explicit circuit (pulses + delays) for
inspection or export.  The noisy executor protects the same windows straight
from the assignment and protocol
(:meth:`~repro.hardware.program.CompiledNoisyProgram.assignment_variants`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate
from ..core.gst import GateSequenceTable, IdleWindow
from .sequences import DDPulseTrain, DDSequence, get_sequence

__all__ = [
    "DDAssignment",
    "DDPlan",
    "WINDOW_KEY_ATOL_NS",
    "plan_dd",
    "materialize_dd_circuit",
]


@dataclass(frozen=True)
class DDAssignment:
    """The subset of qubits that receive DD pulses during idle windows."""

    qubits: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", frozenset(int(q) for q in self.qubits))

    @classmethod
    def none(cls) -> "DDAssignment":
        return cls(qubits=frozenset())

    @classmethod
    def all(cls, qubits: Iterable[int]) -> "DDAssignment":
        return cls(qubits=frozenset(qubits))

    @classmethod
    def from_bitstring(cls, bits: str, qubits: Sequence[int]) -> "DDAssignment":
        """Decode a combination string like ``"010100"``.

        ``bits[i]`` corresponds to ``qubits[i]``; '1' enables DD on that qubit.
        """
        if len(bits) != len(qubits):
            raise ValueError(
                f"bitstring length {len(bits)} does not match {len(qubits)} qubits"
            )
        selected = {q for bit, q in zip(bits, qubits) if bit == "1"}
        return cls(qubits=frozenset(selected))

    def to_bitstring(self, qubits: Sequence[int]) -> str:
        return "".join("1" if q in self.qubits else "0" for q in qubits)

    def enabled(self, qubit: int) -> bool:
        return qubit in self.qubits

    def __contains__(self, qubit: int) -> bool:
        return qubit in self.qubits

    def __len__(self) -> int:
        return len(self.qubits)


#: Window-endpoint tolerance (ns) of :meth:`DDPlan.train_for`.  Schedules are
#: floating-point sums, so a window recomputed through a different arithmetic
#: path (e.g. a fresh ALAP pass) can differ from the planned one by rounding
#: noise; anything within a micro-nanosecond is the same physical window.
WINDOW_KEY_ATOL_NS = 1e-6


@dataclass
class DDPlan:
    """Pulse trains keyed by the idle window they protect."""

    assignment: DDAssignment
    sequence_name: str
    trains: Dict[Tuple[int, float, float], DDPulseTrain] = field(default_factory=dict)
    #: Lazily built per-qubit view of ``trains`` for the tolerance fallback
    #: (rebuilt after ``add``); misses on unprotected qubits stay O(1).
    _qubit_index: Optional[Dict[int, List[Tuple[float, float, DDPulseTrain]]]] = field(
        default=None, repr=False, compare=False
    )

    def train_for(self, window: IdleWindow) -> Optional[DDPulseTrain]:
        """The train protecting ``window``, tolerant to float rounding.

        Exact float keys made a window recomputed through a different
        arithmetic path silently return no train; the exact-key lookup is
        kept as the fast path, with a per-qubit tolerance scan
        (:data:`WINDOW_KEY_ATOL_NS`) as the fallback.
        """
        exact = self.trains.get((window.qubit, window.start, window.end))
        if exact is not None:
            return exact
        if self._qubit_index is None:
            index: Dict[int, List[Tuple[float, float, DDPulseTrain]]] = {}
            for (qubit, start, end), train in self.trains.items():
                index.setdefault(qubit, []).append((start, end, train))
            self._qubit_index = index
        for start, end, train in self._qubit_index.get(window.qubit, ()):
            if (
                abs(start - window.start) <= WINDOW_KEY_ATOL_NS
                and abs(end - window.end) <= WINDOW_KEY_ATOL_NS
            ):
                return train
        return None

    def add(self, window: IdleWindow, train: DDPulseTrain) -> None:
        self.trains[(window.qubit, window.start, window.end)] = train
        self._qubit_index = None

    @property
    def num_protected_windows(self) -> int:
        return len(self.trains)

    @property
    def total_pulses(self) -> int:
        return sum(t.num_pulses for t in self.trains.values())

    def pulses_on_qubit(self, qubit: int) -> int:
        return sum(t.num_pulses for (q, _, _), t in self.trains.items() if q == qubit)


def plan_dd(
    gst: GateSequenceTable,
    assignment: DDAssignment,
    sequence: DDSequence | str = "xy4",
    min_window_ns: Optional[float] = None,
) -> DDPlan:
    """Build the DD plan for a scheduled circuit.

    Args:
        gst: the Gate Sequence Table of the compiled circuit.
        assignment: which qubits receive DD.
        sequence: a :class:`DDSequence` instance or protocol name.
        min_window_ns: minimum idle window to protect; defaults to the
            protocol's own minimum (one XY4 block, one X–X pair, ...).
    """
    if isinstance(sequence, str):
        sequence = get_sequence(sequence)
    threshold = sequence.min_window_ns() if min_window_ns is None else float(min_window_ns)
    plan = DDPlan(assignment=assignment, sequence_name=sequence.name)
    for window in gst.idle_windows(min_duration=threshold):
        if not assignment.enabled(window.qubit):
            continue
        train = sequence.build_train(window.qubit, window.start, window.duration)
        if train is not None:
            plan.add(window, train)
    return plan


def materialize_dd_circuit(
    gst: GateSequenceTable,
    plan: DDPlan,
) -> QuantumCircuit:
    """Produce an explicit circuit with DD pulses and delays inserted.

    The output is the "Quantum Executable with DD" of Figure 11: program gates
    in schedule order, with each protected idle window expanded into labelled
    DD pulses separated by explicit delays, and unprotected idle windows
    expanded into a single delay.  The inserted pulses on any qubit compose to
    the identity, so the circuit's ideal semantics are unchanged (verified in
    the test-suite).
    """
    circuit = QuantumCircuit(gst.circuit.num_qubits, name=f"{gst.circuit.name}+dd")
    events: List[Tuple[float, int, Gate]] = []
    order = 0
    for scheduled in gst.scheduled_gates:
        events.append((scheduled.start, order, scheduled.gate))
        order += 1
    for window in gst.idle_windows():
        train = plan.train_for(window)
        if train is None:
            events.append(
                (
                    window.start,
                    order,
                    Gate(name="delay", qubits=(window.qubit,), duration=window.duration),
                )
            )
            order += 1
            continue
        cursor = 0.0
        for pulse in train.pulses:
            gap = pulse.offset - cursor
            if gap > 1e-9:
                events.append(
                    (
                        window.start + cursor,
                        order,
                        Gate(name="delay", qubits=(window.qubit,), duration=gap),
                    )
                )
                order += 1
            events.append(
                (
                    window.start + pulse.offset,
                    order,
                    Gate(
                        name=pulse.name,
                        qubits=(window.qubit,),
                        duration=pulse.duration,
                        label="dd",
                    ),
                )
            )
            order += 1
            cursor = pulse.end
        tail = window.duration - cursor
        if tail > 1e-9:
            events.append(
                (
                    window.start + cursor,
                    order,
                    Gate(name="delay", qubits=(window.qubit,), duration=tail),
                )
            )
            order += 1
    events.sort(key=lambda item: (item[0], item[1]))
    for _, _, gate in events:
        circuit.append(gate)
    return circuit

"""Dynamical-decoupling pulse sequences (XY4 and IBMQ-DD).

The paper studies two DD protocols (Section 4.4.3, Figure 12):

* **XY4** — continuous repetition of X-Y-X-Y blocks.  On IBMQ hardware the Y
  pulse is decomposed as SX·RZ·SX (RZ is virtual), so one block costs two X
  pulses and four SX pulses of ~35 ns each plus a 10 ns free-evolution buffer
  after each pulse, about 210-250 ns per block.  Blocks are repeated to fill
  the idle window, so pulse spacing stays constant as the window grows.

* **IBMQ-DD** — the X(π)–X(−π) scheme used in IBM's quantum-volume
  experiments: the two pulses are placed evenly inside the window with delay
  slots of τ/4 around them (Equation 4).  Pulse spacing therefore grows with
  the window, which is why XY4 wins for long idle periods (Figure 16).  For
  application-level runs the paper applies IBMQ-DD "more conservatively" by
  repeating the pair for large windows; the ``repetition_period_ns`` knob
  reproduces that behaviour.

Every sequence knows how to build the *pulse train* for a window: the list of
physical pulses with offsets, the resulting average spacing (what determines
how well low-frequency noise is refocused) and the minimum window it fits in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..circuits.gates import Gate

__all__ = [
    "DDPulse",
    "DDPulseTrain",
    "DDSequence",
    "XY4Sequence",
    "IBMQDDSequence",
    "CPMGSequence",
    "get_sequence",
    "SEQUENCES",
]


@dataclass(frozen=True)
class DDPulse:
    """One physical pulse of a DD train, relative to the window start."""

    name: str
    offset: float
    duration: float

    @property
    def end(self) -> float:
        return self.offset + self.duration


@dataclass(frozen=True)
class DDPulseTrain:
    """The pulses inserted into one idle window on one qubit."""

    sequence_name: str
    qubit: int
    window_start: float
    window_duration: float
    pulses: Tuple[DDPulse, ...]

    @property
    def num_pulses(self) -> int:
        return len(self.pulses)

    @property
    def average_spacing(self) -> float:
        """Mean gap between consecutive pulse centres (refocusing interval)."""
        if len(self.pulses) <= 1:
            return self.window_duration
        centres = [p.offset + p.duration / 2 for p in self.pulses]
        gaps = [b - a for a, b in zip(centres, centres[1:])]
        return sum(gaps) / len(gaps)

    def gates(self) -> List[Gate]:
        """The pulses as labelled circuit gates (absolute offsets not applied)."""
        return [
            Gate(name=p.name, qubits=(self.qubit,), duration=p.duration, label="dd")
            for p in self.pulses
        ]


class DDSequence:
    """Base class for DD protocols."""

    #: protocol identifier used in result tables
    name: str = "base"

    def __init__(self, sq_gate_ns: float = 35.0, buffer_ns: float = 10.0) -> None:
        self.sq_gate_ns = float(sq_gate_ns)
        self.buffer_ns = float(buffer_ns)

    def min_window_ns(self) -> float:
        """Smallest idle window the protocol can be inserted into."""
        raise NotImplementedError

    def build_train(self, qubit: int, window_start: float, window_duration: float) -> Optional[DDPulseTrain]:
        """Pulse train for a window, or ``None`` when the window is too short."""
        raise NotImplementedError

    # Helpers -----------------------------------------------------------

    def _train(
        self, qubit: int, window_start: float, window_duration: float, pulses: Sequence[DDPulse]
    ) -> DDPulseTrain:
        return DDPulseTrain(
            sequence_name=self.name,
            qubit=qubit,
            window_start=window_start,
            window_duration=window_duration,
            pulses=tuple(pulses),
        )


class XY4Sequence(DDSequence):
    """Repeated X-Y-X-Y blocks filling the idle window."""

    name = "xy4"

    def block_duration(self) -> float:
        """Duration of one X-Y-X-Y block in the IBM basis decomposition."""
        x_cost = self.sq_gate_ns + self.buffer_ns
        y_cost = 2 * self.sq_gate_ns + self.buffer_ns  # Y = SX·RZ·SX, RZ virtual
        return 2 * x_cost + 2 * y_cost

    def min_window_ns(self) -> float:
        return self.block_duration()

    def build_train(self, qubit: int, window_start: float, window_duration: float) -> Optional[DDPulseTrain]:
        block = self.block_duration()
        repetitions = int(window_duration // block)
        if repetitions < 1:
            return None
        # Centre the pulse train inside the window and pack blocks back-to-back.
        slack = window_duration - repetitions * block
        cursor = slack / 2.0
        pulses: List[DDPulse] = []
        for _ in range(repetitions):
            for pulse_name, duration in (
                ("x", self.sq_gate_ns),
                ("y", 2 * self.sq_gate_ns),
                ("x", self.sq_gate_ns),
                ("y", 2 * self.sq_gate_ns),
            ):
                pulses.append(DDPulse(name=pulse_name, offset=cursor, duration=duration))
                cursor += duration + self.buffer_ns
        return self._train(qubit, window_start, window_duration, pulses)


class IBMQDDSequence(DDSequence):
    """IBM's X(π)–X(−π) scheme with evenly spread delay slots."""

    name = "ibmq_dd"

    def __init__(
        self,
        sq_gate_ns: float = 35.0,
        buffer_ns: float = 10.0,
        repetition_period_ns: Optional[float] = 2000.0,
    ) -> None:
        super().__init__(sq_gate_ns=sq_gate_ns, buffer_ns=buffer_ns)
        #: ``None`` reproduces the original protocol (a single X–X pair per
        #: window however long it is); a finite period repeats the pair every
        #: ``repetition_period_ns``, the conservative variant ADAPT uses at the
        #: application level (Section 6.4).
        self.repetition_period_ns = repetition_period_ns

    def pair_duration(self) -> float:
        return 2 * (self.sq_gate_ns + self.buffer_ns)

    def min_window_ns(self) -> float:
        return 2 * self.pair_duration()

    def build_train(self, qubit: int, window_start: float, window_duration: float) -> Optional[DDPulseTrain]:
        if window_duration < self.min_window_ns():
            return None
        if self.repetition_period_ns is None:
            repetitions = 1
        else:
            repetitions = max(1, int(round(window_duration / self.repetition_period_ns)))
            max_reps = int(window_duration // self.min_window_ns())
            repetitions = max(1, min(repetitions, max_reps))
        segment = window_duration / repetitions
        pulses: List[DDPulse] = []
        for rep in range(repetitions):
            base = rep * segment
            # delay τ/4 · X(π) · delay τ/4 · delay τ/4 · X(−π) · delay τ/4
            delay = max(0.0, (segment - 2 * self.sq_gate_ns) / 4.0)
            first = base + delay
            second = base + 3 * delay + self.sq_gate_ns
            pulses.append(DDPulse(name="x", offset=first, duration=self.sq_gate_ns))
            pulses.append(DDPulse(name="x", offset=second, duration=self.sq_gate_ns))
        return self._train(qubit, window_start, window_duration, pulses)


class CPMGSequence(DDSequence):
    """Carr–Purcell–Meiboom–Gill: evenly spaced X pulses at a target spacing.

    Not evaluated in the paper's main results but included as an extension
    point (the paper notes ADAPT generalises to other DD protocols).
    """

    name = "cpmg"

    def __init__(
        self,
        sq_gate_ns: float = 35.0,
        buffer_ns: float = 10.0,
        target_spacing_ns: float = 400.0,
    ) -> None:
        super().__init__(sq_gate_ns=sq_gate_ns, buffer_ns=buffer_ns)
        self.target_spacing_ns = float(target_spacing_ns)

    def min_window_ns(self) -> float:
        return 2 * (self.sq_gate_ns + self.buffer_ns)

    def build_train(self, qubit: int, window_start: float, window_duration: float) -> Optional[DDPulseTrain]:
        if window_duration < self.min_window_ns():
            return None
        num_pulses = max(2, int(window_duration // self.target_spacing_ns))
        if num_pulses % 2:  # even pulse count so the net rotation is identity
            num_pulses += 1
        spacing = window_duration / num_pulses
        if spacing < self.sq_gate_ns + self.buffer_ns:
            num_pulses = max(2, 2 * int(window_duration // (2 * (self.sq_gate_ns + self.buffer_ns))))
            spacing = window_duration / num_pulses
        pulses = [
            DDPulse(
                name="x",
                offset=(i + 0.5) * spacing - self.sq_gate_ns / 2,
                duration=self.sq_gate_ns,
            )
            for i in range(num_pulses)
        ]
        return self._train(qubit, window_start, window_duration, pulses)


SEQUENCES = {
    "xy4": XY4Sequence,
    "ibmq_dd": IBMQDDSequence,
    "cpmg": CPMGSequence,
}


def get_sequence(name: str, **kwargs) -> DDSequence:
    """Instantiate a DD sequence by name (``"xy4"``, ``"ibmq_dd"``, ``"cpmg"``)."""
    try:
        cls = SEQUENCES[name.lower()]
    except KeyError as exc:
        raise KeyError(f"unknown DD sequence '{name}'; known: {sorted(SEQUENCES)}") from exc
    return cls(**kwargs)

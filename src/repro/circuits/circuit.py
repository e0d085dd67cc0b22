"""The :class:`QuantumCircuit` intermediate representation.

A circuit is an ordered list of :class:`~repro.circuits.gates.Gate`
instructions over ``num_qubits`` qubits.  The class offers the usual builder
methods (``h``, ``cx``, ``rz``, ...), structural queries used throughout the
reproduction (depth, gate counts, two-qubit structure) and transformations
(qubit remapping, composition, inversion of unitary sub-circuits).

The representation is intentionally simple — the scheduling and idle-window
analysis that ADAPT needs live in :mod:`repro.core.gst`, which converts a
circuit plus a backend's gate latencies into a Gate Sequence Table.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .gates import Gate, gate_matrix

__all__ = ["QuantumCircuit", "CircuitError"]


class CircuitError(ValueError):
    """Raised for structurally invalid circuit operations."""


_INVERSE_FIXED = {
    "id": "id",
    "i": "id",
    "x": "x",
    "y": "y",
    "z": "z",
    "h": "h",
    "s": "sdg",
    "sdg": "s",
    "t": "tdg",
    "tdg": "t",
    "sx": "sxdg",
    "sxdg": "sx",
    "cx": "cx",
    "cnot": "cnot",
    "cz": "cz",
    "swap": "swap",
}

_INVERSE_NEGATE_PARAMS = {"rx", "ry", "rz", "p", "u1"}


class QuantumCircuit:
    """An ordered sequence of gates over a fixed register of qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits <= 0:
            raise CircuitError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._gates: List[Gate] = []
        self.name = name

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def gates(self) -> Tuple[Gate, ...]:
        """Immutable view of the instruction list."""
        return tuple(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def __iter__(self) -> Iterator[Gate]:
        return iter(self._gates)

    def __getitem__(self, index: int) -> Gate:
        return self._gates[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return self._num_qubits == other._num_qubits and self._gates == other._gates

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self._num_qubits},"
            f" gates={len(self._gates)})"
        )

    # ------------------------------------------------------------------
    # Builder API
    # ------------------------------------------------------------------

    @classmethod
    def _trusted(cls, num_qubits: int, name: str, gates: List[Gate]) -> "QuantumCircuit":
        """Internal bulk constructor for pre-validated gates.

        Transpiler passes rebuild circuits gate-by-gate from an existing
        (already validated) circuit; re-checking every qubit index on every
        append is pure overhead there.  The caller must guarantee that every
        gate fits the register and transfers ownership of ``gates``.
        """
        circuit = cls.__new__(cls)
        circuit._num_qubits = int(num_qubits)
        circuit._gates = gates
        circuit.name = name
        return circuit

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a pre-built gate, validating its qubit indices."""
        if max(gate.qubits) >= self._num_qubits:
            raise CircuitError(
                f"gate {gate.name} addresses qubit {max(gate.qubits)} but the"
                f" circuit only has {self._num_qubits} qubits"
            )
        self._gates.append(gate)
        return self

    def add(
        self,
        name: str,
        qubits: Sequence[int],
        params: Sequence[float] = (),
        duration: Optional[float] = None,
        label: Optional[str] = None,
    ) -> "QuantumCircuit":
        """Append a gate described by name/qubits/params."""
        return self.append(
            Gate(name=name, qubits=tuple(qubits), params=tuple(params), duration=duration, label=label)
        )

    # Single-qubit gates -------------------------------------------------

    def i(self, qubit: int) -> "QuantumCircuit":
        return self.add("id", [qubit])

    def x(self, qubit: int, label: Optional[str] = None) -> "QuantumCircuit":
        return self.add("x", [qubit], label=label)

    def y(self, qubit: int, label: Optional[str] = None) -> "QuantumCircuit":
        return self.add("y", [qubit], label=label)

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.add("z", [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.add("h", [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.add("s", [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.add("sdg", [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.add("t", [qubit])

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.add("tdg", [qubit])

    def sx(self, qubit: int, label: Optional[str] = None) -> "QuantumCircuit":
        return self.add("sx", [qubit], label=label)

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.add("rx", [qubit], [theta])

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.add("ry", [qubit], [theta])

    def rz(self, phi: float, qubit: int, label: Optional[str] = None) -> "QuantumCircuit":
        return self.add("rz", [qubit], [phi], label=label)

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        return self.add("p", [qubit], [lam])

    def u1(self, lam: float, qubit: int) -> "QuantumCircuit":
        return self.add("u1", [qubit], [lam])

    def u2(self, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.add("u2", [qubit], [phi, lam])

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.add("u3", [qubit], [theta, phi, lam])

    # Two-qubit gates ----------------------------------------------------

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.add("cx", [control, target])

    def cnot(self, control: int, target: int) -> "QuantumCircuit":
        return self.cx(control, target)

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("cz", [a, b])

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.add("swap", [a, b])

    # Pseudo instructions ------------------------------------------------

    def measure(self, qubit: int) -> "QuantumCircuit":
        return self.add("measure", [qubit])

    def measure_all(self) -> "QuantumCircuit":
        for qubit in range(self._num_qubits):
            self.measure(qubit)
        return self

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        targets = qubits if qubits else tuple(range(self._num_qubits))
        return self.add("barrier", list(targets))

    def delay(self, duration: float, qubit: int) -> "QuantumCircuit":
        return self.add("delay", [qubit], duration=duration)

    def reset(self, qubit: int) -> "QuantumCircuit":
        return self.add("reset", [qubit])

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------

    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names (``{"cx": 5, "h": 3, ...}``)."""
        counts: Dict[str, int] = {}
        for gate in self._gates:
            counts[gate.name] = counts.get(gate.name, 0) + 1
        return counts

    @property
    def num_gates(self) -> int:
        """Total number of instructions excluding barriers."""
        return sum(1 for g in self._gates if not g.is_barrier)

    @property
    def num_two_qubit_gates(self) -> int:
        return sum(1 for g in self._gates if g.is_two_qubit)

    @property
    def num_measurements(self) -> int:
        return sum(1 for g in self._gates if g.is_measurement)

    def depth(self) -> int:
        """Circuit depth (longest dependency chain), barriers excluded."""
        frontier = [0] * self._num_qubits
        for gate in self._gates:
            if gate.is_barrier:
                level = max(frontier[q] for q in gate.qubits)
                for q in gate.qubits:
                    frontier[q] = level
                continue
            level = max(frontier[q] for q in gate.qubits) + 1
            for q in gate.qubits:
                frontier[q] = level
        return max(frontier) if frontier else 0

    def qubits_used(self) -> Tuple[int, ...]:
        """Sorted tuple of qubits touched by at least one instruction."""
        used = set()
        for gate in self._gates:
            used.update(gate.qubits)
        return tuple(sorted(used))

    def two_qubit_structure(self) -> Tuple[Tuple[int, Tuple[int, int]], ...]:
        """Positions and qubit pairs of the two-qubit gates.

        Decoy circuits must preserve exactly this structure (Insight #2 of the
        paper), so equality of ``two_qubit_structure()`` is the check used by
        the decoy generator and its tests.
        """
        structure = []
        index = 0
        for gate in self._gates:
            if gate.is_barrier:
                continue
            if gate.is_two_qubit:
                structure.append((index, (gate.qubits[0], gate.qubits[1])))
            index += 1
        return tuple(structure)

    def is_clifford_only(self, ignore_non_unitary: bool = True) -> bool:
        """True if every unitary gate in the circuit is a Clifford gate."""
        for gate in self._gates:
            if not gate.is_unitary:
                if ignore_non_unitary:
                    continue
                return False
            if not gate.is_clifford:
                return False
        return True

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        clone = QuantumCircuit(self._num_qubits, name=name or self.name)
        clone._gates = list(self._gates)
        return clone

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit with ``other`` appended after ``self``."""
        if other.num_qubits > self._num_qubits:
            raise CircuitError(
                "cannot compose a larger circuit onto a smaller register"
            )
        merged = self.copy()
        for gate in other:
            merged.append(gate)
        return merged

    def remap(self, mapping: Dict[int, int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Return a copy with every qubit ``q`` replaced by ``mapping[q]``.

        Used by the layout pass to place virtual program qubits on physical
        device qubits.
        """
        targets = list(mapping.values())
        if len(set(targets)) != len(targets):
            raise CircuitError("qubit mapping must be injective")
        new_size = num_qubits if num_qubits is not None else max(targets) + 1
        remapped = QuantumCircuit(new_size, name=self.name)
        for gate in self._gates:
            try:
                new_qubits = tuple(mapping[q] for q in gate.qubits)
            except KeyError as exc:
                raise CircuitError(f"mapping is missing qubit {exc.args[0]}") from exc
            remapped.append(gate.with_qubits(*new_qubits))
        return remapped

    def compact(self) -> Tuple["QuantumCircuit", Tuple[int, ...]]:
        """Drop unused qubits, renumbering the used ones contiguously.

        Returns the compacted circuit and the tuple of original qubit indices
        in ascending order (``result[1][i]`` is the original index of the new
        qubit ``i``).  Used to simulate circuits mapped onto large devices
        without paying for the untouched physical qubits.
        """
        used = self.qubits_used()
        if not used:
            return QuantumCircuit(1, name=self.name), (0,)
        mapping = {q: i for i, q in enumerate(used)}
        return self.remap(mapping, num_qubits=len(used)), used

    def without_measurements(self) -> "QuantumCircuit":
        """Copy of the circuit with measurement/barrier instructions removed."""
        stripped = QuantumCircuit(self._num_qubits, name=self.name)
        for gate in self._gates:
            if gate.is_measurement or gate.is_barrier:
                continue
            stripped.append(gate)
        return stripped

    def inverse(self) -> "QuantumCircuit":
        """Return the inverse of a unitary circuit (reversed, gates inverted)."""
        inv = QuantumCircuit(self._num_qubits, name=f"{self.name}_dg")
        for gate in reversed(self._gates):
            if not gate.is_unitary:
                raise CircuitError(
                    f"cannot invert non-unitary instruction '{gate.name}'"
                )
            if gate.name in _INVERSE_FIXED:
                inv.add(_INVERSE_FIXED[gate.name], gate.qubits)
            elif gate.name in _INVERSE_NEGATE_PARAMS:
                inv.add(gate.name, gate.qubits, [-gate.params[0]])
            elif gate.name in ("u2",):
                phi, lam = gate.params
                inv.add("u3", gate.qubits, [-math.pi / 2, -lam, -phi])
            elif gate.name in ("u3", "u"):
                theta, phi, lam = gate.params
                inv.add("u3", gate.qubits, [-theta, -lam, -phi])
            else:  # pragma: no cover - defensive
                raise CircuitError(f"no inverse rule for gate '{gate.name}'")
        return inv

    def map_gates(self, func: Callable[[Gate], Iterable[Gate]]) -> "QuantumCircuit":
        """Rebuild the circuit by mapping each gate to zero or more gates."""
        rebuilt = QuantumCircuit(self._num_qubits, name=self.name)
        for gate in self._gates:
            for new_gate in func(gate):
                rebuilt.append(new_gate)
        return rebuilt

    # ------------------------------------------------------------------
    # Matrix semantics (for small circuits / verification in tests)
    # ------------------------------------------------------------------

    def to_unitary(self) -> np.ndarray:
        """Dense unitary of the circuit (measurements/barriers disallowed).

        Only intended for verification on small circuits; it scales as 4**n.
        """
        dim = 2 ** self._num_qubits
        unitary = np.eye(dim, dtype=complex)
        for gate in self._gates:
            if gate.is_barrier:
                continue
            if not gate.is_unitary:
                raise CircuitError(
                    f"cannot build a unitary with instruction '{gate.name}'"
                )
            unitary = self._expand(gate) @ unitary
        return unitary

    def _expand(self, gate: Gate) -> np.ndarray:
        """Embed a 1- or 2-qubit gate matrix into the full Hilbert space."""
        n = self._num_qubits
        dim = 2 ** n
        small = gate_matrix(gate.name, gate.params)
        k = gate.num_qubits
        full = np.zeros((dim, dim), dtype=complex)
        axes = gate.qubits
        for basis in range(dim):
            bits = [(basis >> (n - 1 - q)) & 1 for q in range(n)]
            sub_in = 0
            for pos, q in enumerate(axes):
                sub_in = (sub_in << 1) | bits[q]
            for sub_out in range(2 ** k):
                amp = small[sub_out, sub_in]
                if amp == 0:
                    continue
                new_bits = list(bits)
                for pos, q in enumerate(axes):
                    new_bits[q] = (sub_out >> (k - 1 - pos)) & 1
                out = 0
                for bit in new_bits:
                    out = (out << 1) | bit
                full[out, basis] += amp
        return full

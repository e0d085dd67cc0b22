"""Dense statevector simulator.

Used for:

* computing the ideal (noise-free) output distribution of the input program,
  which defines the fidelity metric (Section 5.4);
* simulating Seeded Decoy Circuits that contain a handful of non-Clifford
  gates (Section 4.2.3) when they are small enough for a dense representation;
* verification of the other simulators in the test-suite.

Qubit ordering convention: qubit 0 is the **most significant bit** of the
output bitstrings, matching :meth:`QuantumCircuit.to_unitary`.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate, gate_matrix

__all__ = ["StatevectorSimulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when a circuit cannot be simulated by the selected engine."""


class StatevectorSimulator:
    """Exact pure-state simulator for unitary circuits.

    Measurements are treated as terminal: they mark the measured qubits but do
    not collapse the state, and the output distribution is read from the final
    statevector.  Mid-circuit measurement followed by more gates on the same
    qubit is rejected.
    """

    def __init__(self, max_qubits: int = 24) -> None:
        self.max_qubits = int(max_qubits)

    # ------------------------------------------------------------------

    def run(self, circuit: QuantumCircuit) -> np.ndarray:
        """Return the final statevector as a flat array of length ``2**n``."""
        n = circuit.num_qubits
        if n > self.max_qubits:
            raise SimulationError(
                f"circuit has {n} qubits which exceeds the dense limit"
                f" of {self.max_qubits}"
            )
        state = np.zeros((2,) * n, dtype=complex)
        state[(0,) * n] = 1.0
        measured = set()
        for gate in circuit:
            if gate.is_barrier or gate.is_delay:
                continue
            if gate.is_measurement:
                measured.update(gate.qubits)
                continue
            if gate.name == "reset":
                state = self._reset(state, gate.qubits[0], n)
                continue
            if any(q in measured for q in gate.qubits):
                raise SimulationError(
                    "gate applied to an already-measured qubit; the statevector"
                    " engine only supports terminal measurements"
                )
            state = self._apply(state, gate, n)
        return state.reshape(-1)

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Output probability vector over all ``2**n`` basis states."""
        amplitudes = self.run(circuit)
        probs = np.abs(amplitudes) ** 2
        total = probs.sum()
        if total <= 0:
            raise SimulationError("statevector collapsed to zero norm")
        return probs / total

    def counts(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, int]:
        """Sample measurement counts keyed by bitstrings (qubit 0 leftmost)."""
        rng = rng or np.random.default_rng()
        probs = self.probabilities(circuit)
        n = circuit.num_qubits
        samples = rng.multinomial(shots, probs)
        return {
            format(idx, f"0{n}b"): int(count)
            for idx, count in enumerate(samples)
            if count > 0
        }

    # ------------------------------------------------------------------

    @staticmethod
    def _apply(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
        matrix = gate_matrix(gate.name, gate.params)
        k = gate.num_qubits
        axes = list(gate.qubits)
        tensor = matrix.reshape((2,) * (2 * k))
        # tensordot contracts the gate's input indices with the state's axes and
        # moves the gate's output indices to the front of the result; the
        # permutation below restores the original qubit -> axis correspondence.
        state = np.tensordot(tensor, state, axes=(list(range(k, 2 * k)), axes))
        remaining = [q for q in range(num_qubits) if q not in axes]
        current = {q: i for i, q in enumerate(list(axes) + remaining)}
        perm = [current[q] for q in range(num_qubits)]
        return np.transpose(state, perm)

    @staticmethod
    def _reset(state: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
        """Project-and-renormalise the qubit to |0>, discarding |1> weight."""
        moved = np.moveaxis(state, qubit, 0)
        new = np.zeros_like(moved)
        new[0] = moved[0]
        norm = np.linalg.norm(new)
        if norm < 1e-12:
            # the qubit was deterministically |1>: reset flips it to |0>
            new[0] = moved[1]
            norm = np.linalg.norm(new)
        new = new / norm
        return np.moveaxis(new, 0, qubit)

"""Density-matrix simulator with Kraus-channel support.

The reference of the dense execution engine
(:class:`repro.simulators.engines.DensityMatrixEngine`): one state, one
Kraus channel at a time, no superoperators and no batching.  The state is
stored as a tensor of shape ``(2,)*n + (2,)*n`` where the first
``n`` axes are row (ket) indices and the last ``n`` axes are column (bra)
indices; qubit 0 is the most significant bit of output bitstrings, consistent
with :class:`~repro.simulators.statevector.StatevectorSimulator`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, gate_matrix
from repro.simulators.statevector import SimulationError

__all__ = ["DensityMatrixSimulator"]


class DensityMatrixSimulator:
    """Mixed-state simulator supporting unitary gates and Kraus channels."""

    def __init__(self, num_qubits: int, max_qubits: int = 12) -> None:
        if num_qubits <= 0:
            raise SimulationError("need at least one qubit")
        if num_qubits > max_qubits:
            raise SimulationError(
                f"{num_qubits} qubits exceeds the density-matrix limit of {max_qubits}"
            )
        self._n = int(num_qubits)
        self._rho = np.zeros((2,) * (2 * self._n), dtype=complex)
        self._rho[(0,) * (2 * self._n)] = 1.0

    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._n

    @property
    def density_matrix(self) -> np.ndarray:
        """The density matrix reshaped to ``(2**n, 2**n)``."""
        dim = 2 ** self._n
        return self._rho.reshape(dim, dim)

    def set_density_matrix(self, rho: np.ndarray) -> None:
        dim = 2 ** self._n
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (dim, dim):
            raise SimulationError(f"expected a {dim}x{dim} matrix, got {rho.shape}")
        self._rho = rho.reshape((2,) * (2 * self._n)).copy()

    # ------------------------------------------------------------------
    # State evolution
    # ------------------------------------------------------------------

    def apply_gate(self, gate: Gate) -> None:
        """Apply the unitary of ``gate``: rho -> U rho U^dagger."""
        if gate.is_barrier or gate.is_delay or gate.is_measurement:
            return
        if gate.name == "reset":
            self._apply_reset(gate.qubits[0])
            return
        matrix = gate_matrix(gate.name, gate.params)
        self.apply_unitary(matrix, gate.qubits)

    def apply_unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply an explicit unitary matrix on ``qubits``."""
        matrix = np.asarray(matrix, dtype=complex)
        self._contract(matrix, qubits, side="left")
        self._contract(matrix.conj(), qubits, side="right")

    def apply_kraus(self, kraus: Iterable[np.ndarray], qubits: Sequence[int]) -> None:
        """Apply a Kraus channel: rho -> sum_k K_k rho K_k^dagger."""
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        if len(kraus) == 1:
            self.apply_unitary(kraus[0], qubits)
            return
        original = self._rho
        accumulated = np.zeros_like(original)
        for operator in kraus:
            self._rho = original.copy()
            self._contract(operator, qubits, side="left")
            self._contract(operator.conj(), qubits, side="right")
            accumulated += self._rho
        self._rho = accumulated

    def run_circuit(self, circuit: QuantumCircuit) -> None:
        """Apply every unitary instruction of an (ideal) circuit in order."""
        if circuit.num_qubits != self._n:
            raise SimulationError("circuit size does not match the simulator")
        for gate in circuit:
            self.apply_gate(gate)

    def _apply_reset(self, qubit: int) -> None:
        zero = np.array([[1, 0], [0, 0]], dtype=complex)
        one_to_zero = np.array([[0, 1], [0, 0]], dtype=complex)
        self.apply_kraus([zero, one_to_zero], [qubit])

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Diagonal of the density matrix, clipped and renormalised."""
        diag = np.real(np.diagonal(self.density_matrix)).copy()
        diag[diag < 0] = 0.0
        total = diag.sum()
        if total <= 0:
            raise SimulationError("density matrix has vanished (all-zero diagonal)")
        return diag / total

    def counts(
        self, shots: int, rng: Optional[np.random.Generator] = None
    ) -> Dict[str, int]:
        """Sample measurement counts from the current state."""
        rng = rng or np.random.default_rng()
        probs = self.probabilities()
        samples = rng.multinomial(shots, probs)
        return {
            format(idx, f"0{self._n}b"): int(count)
            for idx, count in enumerate(samples)
            if count > 0
        }

    def purity(self) -> float:
        rho = self.density_matrix
        return float(np.real(np.trace(rho @ rho)))

    def trace(self) -> float:
        return float(np.real(np.trace(self.density_matrix)))

    def expectation_z(self, qubit: int) -> float:
        """Expectation value of Pauli-Z on one qubit."""
        probs = self.probabilities()
        n = self._n
        expectation = 0.0
        for idx, p in enumerate(probs):
            bit = (idx >> (n - 1 - qubit)) & 1
            expectation += p * (1.0 if bit == 0 else -1.0)
        return expectation

    # ------------------------------------------------------------------

    def _contract(self, matrix: np.ndarray, qubits: Sequence[int], side: str) -> None:
        """Contract a k-qubit operator with the row (left) or column (right) axes."""
        k = len(qubits)
        if matrix.shape != (2 ** k, 2 ** k):
            raise SimulationError(
                f"operator shape {matrix.shape} does not match {k} qubit(s)"
            )
        tensor = matrix.reshape((2,) * (2 * k))
        if side == "left":
            axes = [q for q in qubits]
        else:
            axes = [self._n + q for q in qubits]
        total_axes = 2 * self._n
        result = np.tensordot(tensor, self._rho, axes=(list(range(k, 2 * k)), axes))
        # tensordot puts the operator's output indices first; build the inverse
        # permutation mapping original axis ids to their new position.
        remaining = [a for a in range(total_axes) if a not in axes]
        current = {axis: i for i, axis in enumerate(list(axes) + remaining)}
        perm = [current[a] for a in range(total_axes)]
        self._rho = np.transpose(result, perm)

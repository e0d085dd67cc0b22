"""Quantum Fourier Transform benchmarks.

QFT circuits are deep, have an all-to-all interaction pattern (every pair of
qubits shares a controlled-phase gate) and therefore suffer badly from both
SWAP insertion and idling — the paper highlights QFT as the workload where
qubits idle up to 90-92% of the execution (Table 1, Section 6.2).

The suite uses pairs of QFT benchmarks (QFT-6A/6B, QFT-7A/7B) with identical
transform structure but different input states, which tests whether decoy
circuits track fidelity for different state evolutions (Section 5.3).
"""

from __future__ import annotations

import math
from typing import Optional

from ..circuits.circuit import QuantumCircuit
from .primitives import controlled_phase, prepare_basis_state

__all__ = ["qft", "qft_benchmark"]


def qft(
    num_qubits: int,
    with_swaps: bool = True,
    inverse: bool = False,
    measure: bool = False,
    name: Optional[str] = None,
) -> QuantumCircuit:
    """The textbook QFT (or inverse QFT) circuit.

    Qubit 0 is the most significant bit of the transformed value, matching the
    simulators' bitstring convention.  The inverse transform is constructed as
    the exact gate-by-gate inverse of the forward circuit.
    """
    circuit = QuantumCircuit(num_qubits, name=name or f"qft-{num_qubits}")
    for i in range(num_qubits):
        circuit.h(i)
        for offset, j in enumerate(range(i + 1, num_qubits), start=2):
            controlled_phase(circuit, 2.0 * math.pi / (2 ** offset), j, i)
    if with_swaps:
        for i in range(num_qubits // 2):
            circuit.swap(i, num_qubits - 1 - i)
    if inverse:
        circuit = circuit.inverse()
        circuit.name = name or f"qft-{num_qubits}-inv"
    if measure:
        circuit.measure_all()
    return circuit


def fourier_state_preparation(circuit: QuantumCircuit, value: int) -> None:
    """Prepare the Fourier basis state encoding ``value`` with 1-qubit gates."""
    num_qubits = circuit.num_qubits
    for qubit in range(num_qubits):
        circuit.h(qubit)
        angle = 2.0 * math.pi * value / (2 ** (qubit + 1))
        circuit.rz(angle, qubit)


def qft_benchmark(
    num_qubits: int,
    variant: str = "A",
    basis_input: Optional[str] = None,
    encoded_value: Optional[int] = None,
) -> QuantumCircuit:
    """A QFT benchmark instance with a concentrated (single-outcome) ideal output.

    The paper's QFT-xA / QFT-xB pairs share the transform structure but apply
    it to different quantum states (Section 5.3); their baseline fidelities are
    low single digits, so the ideal outputs must be concentrated rather than
    uniform.  We therefore use the standard "round-trip" constructions:

    * variant ``A`` prepares the Fourier state of a known integer with
      single-qubit gates and applies the inverse QFT, ideally yielding that
      integer deterministically;
    * variant ``B`` prepares a computational basis state, applies the QFT and
      then the inverse QFT (a Fourier echo), ideally returning the input state
      — roughly twice the depth of variant A, matching the Table 4 ratios.
    """
    variant = variant.upper()
    circuit = QuantumCircuit(num_qubits, name=f"qft-{num_qubits}{variant.lower()}")
    if variant == "A":
        value = encoded_value if encoded_value is not None else (2 ** num_qubits) // 3
        fourier_state_preparation(circuit, value)
        body = qft(num_qubits, inverse=True)
    elif variant == "B":
        bits = basis_input or ("10" * num_qubits)[:num_qubits]
        prepare_basis_state(circuit, bits)
        body = qft(num_qubits).compose(qft(num_qubits, inverse=True))
    else:
        raise ValueError("variant must be 'A' or 'B'")
    merged = circuit.compose(body)
    merged.name = circuit.name
    merged.measure_all()
    return merged

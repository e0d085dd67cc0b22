"""Shared circuit-construction primitives for the benchmark workloads.

The circuit IR deliberately keeps a small gate vocabulary, so multi-qubit
building blocks used by the benchmarks (controlled-phase, Toffoli, state
preparation) are provided here as explicit decompositions into that
vocabulary.
"""

from __future__ import annotations

from ..circuits.circuit import QuantumCircuit

__all__ = [
    "controlled_phase",
    "toffoli",
    "prepare_basis_state",
]


def controlled_phase(circuit: QuantumCircuit, angle: float, control: int, target: int) -> None:
    """Apply a controlled-phase CP(angle) using the standard CX decomposition."""
    circuit.rz(angle / 2.0, control)
    circuit.cx(control, target)
    circuit.rz(-angle / 2.0, target)
    circuit.cx(control, target)
    circuit.rz(angle / 2.0, target)


def toffoli(circuit: QuantumCircuit, a: int, b: int, target: int) -> None:
    """Apply a Toffoli (CCX) gate via the standard 6-CNOT decomposition."""
    circuit.h(target)
    circuit.cx(b, target)
    circuit.tdg(target)
    circuit.cx(a, target)
    circuit.t(target)
    circuit.cx(b, target)
    circuit.tdg(target)
    circuit.cx(a, target)
    circuit.t(b)
    circuit.t(target)
    circuit.h(target)
    circuit.cx(a, b)
    circuit.t(a)
    circuit.tdg(b)
    circuit.cx(a, b)


def prepare_basis_state(circuit: QuantumCircuit, bits: str) -> None:
    """Prepare the computational basis state described by ``bits``.

    ``bits[i]`` corresponds to qubit ``i`` (qubit 0 is the most significant
    bit of output strings, matching the simulators).
    """
    if len(bits) > circuit.num_qubits:
        raise ValueError("bitstring longer than the register")
    for qubit, bit in enumerate(bits):
        if bit == "1":
            circuit.x(qubit)
        elif bit != "0":
            raise ValueError(f"invalid bit '{bit}' in basis state")

"""Circuit intermediate representation: gates and circuits."""

from .gates import (
    BASIS_GATE_NAMES,
    CLIFFORD_GATE_NAMES,
    Gate,
    GateDefinitionError,
    closest_clifford,
    gate_matrix,
    is_clifford_name,
    operator_norm_distance,
)
from .circuit import CircuitError, QuantumCircuit

__all__ = [
    "BASIS_GATE_NAMES",
    "CLIFFORD_GATE_NAMES",
    "CircuitError",
    "Gate",
    "GateDefinitionError",
    "QuantumCircuit",
    "closest_clifford",
    "gate_matrix",
    "is_clifford_name",
    "operator_norm_distance",
]

"""Seeded random-Clifford mirror circuits with an analytically known outcome.

Mirror circuits are the scalable verification workload of the parametric
suite (``MIRROR:<n>@<seed>``): a forward half ``F`` of seeded random
single-qubit Cliffords and nearest-neighbour CNOT brick layers, a random
Pauli layer ``P``, and the exact gate-by-gate inverse ``F†``.  The final
state ``F† P F |0…0⟩`` is a *computational basis state*: ``F† P F`` is a
Pauli, so the target bitstring is its X-part — ``P`` end-propagated through
the suffix ``F†`` exactly like a noise event's mask.  That costs one or
two XORs of integer-packed rows per gate — no simulation of any kind —
which is what makes the success probability of a 100+ qubit run
*verifiable*: the ideal outcome is a known delta distribution at any size,
and the noisy success probability is simply the probability mass an
execution places on the target.

Because every gate is Clifford, mirror workloads ride the stabilizer
execution path end to end (the ``stabilizer`` spectrum engine at small
active spaces, the ``stabilizer_frames`` sampling engine at device scale —
see :mod:`repro.simulators.engines`), so a 127-qubit point costs seconds,
not hours.

Construction is deterministic per ``(num_qubits, seed, layers)``: the same
name always builds the bit-identical circuit, which the experiment store
relies on (circuit content is fingerprinted into every key).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..simulators import symplectic

__all__ = [
    "DEFAULT_MIRROR_LAYERS",
    "mirror_circuit",
    "mirror_target",
]

#: Forward-half entangling layers of the default ``MIRROR:<n>@<seed>`` family
#: member.  Fixed (not size-dependent) so that the circuit *depth* axis stays
#: controlled while the *width* axis sweeps with the device.
DEFAULT_MIRROR_LAYERS = 2

#: Single-qubit Cliffords drawn for the forward half (names of the IR).
_CLIFFORD_1Q = ("id", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg")

#: Pauli layer alphabet.
_PAULIS = ("id", "x", "y", "z")


def _forward_half(
    num_qubits: int, rng: np.random.Generator, layers: int
) -> QuantumCircuit:
    circuit = QuantumCircuit(num_qubits, name="mirror-forward")
    for layer in range(layers):
        for qubit in range(num_qubits):
            name = _CLIFFORD_1Q[int(rng.integers(0, len(_CLIFFORD_1Q)))]
            if name != "id":
                circuit.add(name, [qubit])
        offset = layer % 2
        for a in range(offset, num_qubits - 1, 2):
            circuit.cx(a, a + 1)
    return circuit


def _pauli_layer(num_qubits: int, rng: np.random.Generator) -> List[str]:
    return [_PAULIS[int(rng.integers(0, len(_PAULIS)))] for _ in range(num_qubits)]


def _target_bits(forward: QuantumCircuit, paulis: List[str]) -> str:
    """The deterministic outcome of ``F† P F |0…0⟩``: the X-part of ``F† P F``.

    Walking the suffix ``F†`` backward prepends ``G_1†, G_2†, …`` to its
    conjugation map, and a phase-free conjugation under ``G†`` equals the
    one under ``G`` for this gate alphabet, so the walk goes over
    ``forward``'s gates in order.  Output bit ``q`` is 1 exactly when the
    end-propagated Pauli layer carries an X on qubit ``q``.
    """
    n = forward.num_qubits
    x_of_x, x_of_z = symplectic.identity_suffix(n)  # images of X_q, of Z_q
    for gate in forward:
        symplectic.compose_suffix_packed(
            x_of_x, x_of_z, gate.name, gate.qubits, gate.params
        )
    target = 0
    for q, pauli in enumerate(paulis):
        if pauli in ("x", "y"):
            target ^= x_of_x[q]
        if pauli in ("z", "y"):
            target ^= x_of_z[q]
    return "".join("1" if (target >> q) & 1 else "0" for q in range(n))


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------


def _build(
    num_qubits: int, seed: int, layers: int
) -> Tuple[QuantumCircuit, str]:
    if num_qubits < 2:
        raise ValueError("a mirror circuit needs at least two qubits")
    if layers < 1:
        raise ValueError("a mirror circuit needs at least one forward layer")
    rng = np.random.default_rng(int(seed))
    forward = _forward_half(num_qubits, rng, layers)
    paulis = _pauli_layer(num_qubits, rng)
    target = _target_bits(forward, paulis)

    circuit = QuantumCircuit(num_qubits, name=f"mirror-{num_qubits}@{seed}")
    for gate in forward:
        circuit.append(gate)
    for qubit, pauli in enumerate(paulis):
        if pauli != "id":
            circuit.add(pauli, [qubit])
    for gate in forward.inverse():
        circuit.append(gate)
    return circuit, target


def mirror_circuit(
    num_qubits: int,
    seed: int = 0,
    layers: Optional[int] = None,
    measure: bool = True,
) -> QuantumCircuit:
    """Build the seeded random-Clifford mirror circuit ``MIRROR:<n>@<seed>``."""
    circuit, _ = _build(num_qubits, seed, DEFAULT_MIRROR_LAYERS if layers is None else int(layers))
    if measure:
        circuit.measure_all()
    return circuit


def mirror_target(num_qubits: int, seed: int = 0, layers: Optional[int] = None) -> str:
    """The noise-free measurement outcome of :func:`mirror_circuit`.

    Computed analytically from the symplectic propagation of the initial
    stabilizers — cross-checked against the tableau simulator in the test
    suite — so it is available at any size for success-probability
    verification.
    """
    _, target = _build(num_qubits, seed, DEFAULT_MIRROR_LAYERS if layers is None else int(layers))
    return target

"""The mirror target by boolean anticommutation counting."""

from __future__ import annotations

from typing import List

import numpy as np

from .engines import conjugate_rows


def target_bits(forward, paulis: List[str]) -> str:
    """The deterministic outcome of ``F† P F |0…0⟩``.

    Row ``q`` tracks ``S_q = F Z_q F†``; output bit ``q`` is 1 exactly when
    the Pauli layer anticommutes with ``S_q``.
    """
    n = forward.num_qubits
    pauli_x = np.array([p in ("x", "y") for p in paulis], dtype=bool)
    pauli_z = np.array([p in ("z", "y") for p in paulis], dtype=bool)
    xparts = np.zeros((n, n), dtype=bool)
    zparts = np.eye(n, dtype=bool)
    for gate in forward:
        conjugate_rows(xparts, zparts, gate.name, gate.qubits, gate.params)
    # anticommute(S_q, P) = parity(x(S_q)·z(P)) xor parity(z(S_q)·x(P))
    flips = np.logical_xor(
        (xparts & pauli_z[None, :]).sum(axis=1) % 2,
        (zparts & pauli_x[None, :]).sum(axis=1) % 2,
    )
    return "".join("1" if flip else "0" for flip in flips)

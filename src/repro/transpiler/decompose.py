"""Basis decomposition: rewrite circuits onto the IBMQ basis {rz, sx, x, cx}.

The paper's flow compiles programs "into two-qubit CNOT and single qubit
gates" and ADAPT later inserts DD pulses "in the machine compliant instruction
format" (Section 4.4).  This pass provides that lowering:

* two-qubit gates: ``cz`` -> H-conjugated CNOT, ``swap`` -> three CNOTs;
* single-qubit gates: any unitary is rewritten as
  ``RZ(phi) · SX · RZ(theta) · SX · RZ(lam)`` (the ZSXZSXZ template IBM
  backends use), with the Euler angles extracted numerically from the gate
  matrix.  RZ is virtual (zero duration), so the physical cost is two SX
  pulses — except for gates that already are basis gates (``x``, ``sx``,
  ``rz``), which are left untouched, and known diagonal gates which become a
  single virtual RZ.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, List, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate

__all__ = ["decompose_to_basis", "zyz_angles", "single_qubit_basis_gates"]

_DIAGONAL_ANGLES = {
    "z": math.pi,
    "s": math.pi / 2,
    "sdg": -math.pi / 2,
    "t": math.pi / 4,
    "tdg": -math.pi / 4,
}

_PASSTHROUGH = {"x", "sx", "rz", "cx", "cnot", "measure", "barrier", "delay", "reset", "id", "i"}


def zyz_angles(matrix: np.ndarray) -> Tuple[float, float, float]:
    """Euler angles ``(theta, phi, lam)`` with ``U ~ RZ(phi) RY(theta) RZ(lam)``.

    The decomposition ignores global phase.  Angles are returned in radians.
    """
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("zyz_angles expects a single-qubit unitary")
    # Remove global phase so that the decomposition is well conditioned.
    det = np.linalg.det(u)
    u = u / cmath.sqrt(det)
    theta = 2.0 * math.atan2(abs(u[1, 0]), abs(u[0, 0]))
    if abs(u[0, 0]) < 1e-12:
        # theta == pi: only phi - lam matters; put everything in phi.
        phi = 2.0 * cmath.phase(u[1, 0])
        lam = 0.0
    elif abs(u[1, 0]) < 1e-12:
        # theta == 0: only phi + lam matters; put everything in lam.
        phi = 0.0
        lam = 2.0 * cmath.phase(u[1, 1])
    else:
        phi = cmath.phase(u[1, 1]) + cmath.phase(u[1, 0])
        lam = cmath.phase(u[1, 1]) - cmath.phase(u[1, 0])
    return theta, phi, lam


#: Memoized ZSXZSXZ templates keyed by (name, params, label), expressed on
#: qubit 0 and remapped per use — the Euler-angle extraction (determinant,
#: phases) is by far the most expensive part of lowering and is identical for
#: every occurrence of the same gate.
_TEMPLATE_CACHE: dict = {}
_TEMPLATE_CACHE_LIMIT = 4096


def single_qubit_basis_gates(gate: Gate) -> List[Gate]:
    """Rewrite a single-qubit gate as RZ/SX/RZ/SX/RZ on the same qubit."""
    qubit = gate.qubits[0]
    name = gate.name
    if name in ("id", "i"):
        return []
    if name in _PASSTHROUGH:
        return [gate]
    if name in _DIAGONAL_ANGLES:
        return [Gate("rz", (qubit,), (_DIAGONAL_ANGLES[name],), label=gate.label)]
    if name in ("u1", "p"):
        return [Gate("rz", (qubit,), (gate.params[0],), label=gate.label)]
    label = gate.label
    key = (name, gate.params, label)
    template = _TEMPLATE_CACHE.get(key)
    if template is None:
        theta, phi, lam = zyz_angles(gate.matrix())
        # U = RZ(phi) RY(theta) RZ(lam) and RY(theta) = RZ(pi) SX RZ(theta+pi) SX
        # up to global phase, giving the standard ZSXZSXZ template.
        gates = [
            Gate("rz", (0,), (lam,), label=label),
            Gate("sx", (0,), label=label),
            Gate("rz", (0,), (theta + math.pi,), label=label),
            Gate("sx", (0,), label=label),
            Gate("rz", (0,), (phi + math.pi,), label=label),
        ]
        template = tuple(g for g in gates if not _is_trivial_rz(g))
        if len(_TEMPLATE_CACHE) >= _TEMPLATE_CACHE_LIMIT:
            _TEMPLATE_CACHE.clear()
        _TEMPLATE_CACHE[key] = template
    return [g.with_qubits(qubit) for g in template]


def _is_trivial_rz(gate: Gate) -> bool:
    if gate.name != "rz":
        return False
    angle = gate.params[0] % (2 * math.pi)
    return math.isclose(angle, 0.0, abs_tol=1e-12) or math.isclose(
        angle, 2 * math.pi, abs_tol=1e-12
    )


def _decompose_gate(gate: Gate) -> Iterable[Gate]:
    name = gate.name
    if name in ("cx", "cnot"):
        # Re-emitting an identical Gate per pass made re-lowering routed
        # circuits needlessly allocation-heavy; a plain cx passes through.
        if name == "cx" and not gate.params and gate.duration is None:
            yield gate
        else:
            yield Gate("cx", gate.qubits, label=gate.label)
        return
    if name == "cz":
        control, target = gate.qubits
        yield from single_qubit_basis_gates(Gate("h", (target,)))
        yield Gate("cx", (control, target), label=gate.label)
        yield from single_qubit_basis_gates(Gate("h", (target,)))
        return
    if name == "swap":
        a, b = gate.qubits
        yield Gate("cx", (a, b), label=gate.label)
        yield Gate("cx", (b, a), label=gate.label)
        yield Gate("cx", (a, b), label=gate.label)
        return
    if name in ("measure", "barrier", "delay", "reset"):
        yield gate
        return
    if gate.num_qubits == 1:
        yield from single_qubit_basis_gates(gate)
        return
    raise ValueError(f"no decomposition rule for gate '{name}'")


def decompose_to_basis(circuit: QuantumCircuit) -> QuantumCircuit:
    """Lower every gate of a circuit onto the {rz, sx, x, cx} basis."""
    return circuit.map_gates(_decompose_gate)

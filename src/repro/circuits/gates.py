"""Gate definitions for the circuit IR.

Every gate used by the ADAPT reproduction is described by a :class:`Gate`
instance: a name, the qubits it acts on, optional continuous parameters, an
optional explicit duration (used by the scheduler), and a unitary matrix
(except for the non-unitary ``measure``, ``reset``, ``delay`` and ``barrier``
pseudo-gates).

The module also provides the gate taxonomy the paper relies on:

* the single- and two-qubit **Clifford group** generators (``CNOT, X, Y, Z, H,
  S, Sdg``) used to build Clifford Decoy Circuits (Section 4.2.1);
* the IBMQ **basis gates** (``rz, sx, x, cx``) into which the transpiler
  decomposes programs and DD pulses (Figure 12);
* the parametric ``u1/u2/u3`` family whose "closest Clifford" replacement is
  computed with the operator norm of Equation (1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Gate",
    "GateDefinitionError",
    "SINGLE_QUBIT_CLIFFORD_NAMES",
    "TWO_QUBIT_CLIFFORD_NAMES",
    "CLIFFORD_GATE_NAMES",
    "BASIS_GATE_NAMES",
    "NON_UNITARY_NAMES",
    "gate_matrix",
    "single_qubit_clifford_matrices",
    "is_clifford_name",
    "operator_norm_distance",
    "closest_clifford",
    "u3_matrix",
    "u2_matrix",
    "u1_matrix",
    "rx_matrix",
    "ry_matrix",
    "rz_matrix",
]


class GateDefinitionError(ValueError):
    """Raised when a gate is constructed or queried inconsistently."""


# --------------------------------------------------------------------------
# Constant matrices
# --------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_SDG = np.array([[1, 0], [0, -1j]], dtype=complex)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_TDG = np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)
_SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
_SXDG = 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex)

_CX = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

_FIXED_MATRICES = {
    "id": _I,
    "i": _I,
    "x": _X,
    "y": _Y,
    "z": _Z,
    "h": _H,
    "s": _S,
    "sdg": _SDG,
    "t": _T,
    "tdg": _TDG,
    "sx": _SX,
    "sxdg": _SXDG,
    "cx": _CX,
    "cnot": _CX,
    "cz": _CZ,
    "swap": _SWAP,
}

#: Single-qubit gates that belong to the Clifford group (paper Section 4.2.1).
SINGLE_QUBIT_CLIFFORD_NAMES = frozenset(
    {"id", "i", "x", "y", "z", "h", "s", "sdg", "sx", "sxdg"}
)

#: Two-qubit Clifford gates.
TWO_QUBIT_CLIFFORD_NAMES = frozenset({"cx", "cnot", "cz", "swap"})

#: All Clifford gate names recognised by the decoy generator.
CLIFFORD_GATE_NAMES = SINGLE_QUBIT_CLIFFORD_NAMES | TWO_QUBIT_CLIFFORD_NAMES

#: IBMQ basis gates that the transpiler targets (rz is virtual / software).
BASIS_GATE_NAMES = frozenset({"rz", "sx", "x", "cx"})

#: Pseudo instructions that have no unitary representation.
NON_UNITARY_NAMES = frozenset({"measure", "reset", "barrier", "delay"})

_PARAMETRIC_ARITY = {
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "p": 1,
    "u1": 1,
    "u2": 2,
    "u3": 3,
    "u": 3,
}

_TWO_QUBIT_NAMES = frozenset({"cx", "cnot", "cz", "swap"})


# --------------------------------------------------------------------------
# Parametric matrices
# --------------------------------------------------------------------------


def rx_matrix(theta: float) -> np.ndarray:
    """Rotation about the X axis by ``theta`` radians."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    """Rotation about the Y axis by ``theta`` radians."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(phi: float) -> np.ndarray:
    """Rotation about the Z axis by ``phi`` radians."""
    return np.array(
        [[cmath.exp(-1j * phi / 2), 0], [0, cmath.exp(1j * phi / 2)]], dtype=complex
    )


def u1_matrix(lam: float) -> np.ndarray:
    """IBM ``u1`` (phase) gate."""
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def u2_matrix(phi: float, lam: float) -> np.ndarray:
    """IBM ``u2`` gate: a pi/2 rotation with two phases."""
    return (
        np.array(
            [
                [1, -cmath.exp(1j * lam)],
                [cmath.exp(1j * phi), cmath.exp(1j * (phi + lam))],
            ],
            dtype=complex,
        )
        / _SQRT2
    )


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """IBM ``u3`` gate: the generic single-qubit rotation."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


_PARAMETRIC_BUILDERS = {
    "rx": lambda p: rx_matrix(p[0]),
    "ry": lambda p: ry_matrix(p[0]),
    "rz": lambda p: rz_matrix(p[0]),
    "p": lambda p: u1_matrix(p[0]),
    "u1": lambda p: u1_matrix(p[0]),
    "u2": lambda p: u2_matrix(p[0], p[1]),
    "u3": lambda p: u3_matrix(p[0], p[1], p[2]),
    "u": lambda p: u3_matrix(p[0], p[1], p[2]),
}


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Return the unitary matrix for a named gate.

    Raises:
        GateDefinitionError: if the gate is unknown, non-unitary, or the
            number of parameters does not match the gate's arity.
    """
    lname = name.lower()
    if lname in NON_UNITARY_NAMES:
        raise GateDefinitionError(f"gate '{name}' has no unitary matrix")
    if lname in _FIXED_MATRICES:
        if params:
            raise GateDefinitionError(f"gate '{name}' takes no parameters")
        return _FIXED_MATRICES[lname].copy()
    if lname in _PARAMETRIC_BUILDERS:
        expected = _PARAMETRIC_ARITY[lname]
        if len(params) != expected:
            raise GateDefinitionError(
                f"gate '{name}' expects {expected} parameter(s), got {len(params)}"
            )
        return _PARAMETRIC_BUILDERS[lname](list(params))
    raise GateDefinitionError(f"unknown gate '{name}'")


def single_qubit_clifford_matrices() -> dict:
    """Matrices of the single-qubit Clifford gates used for decoy replacement."""
    return {
        name: _FIXED_MATRICES[name].copy()
        for name in ("id", "x", "y", "z", "h", "s", "sdg")
    }


def is_clifford_name(name: str) -> bool:
    """True if the gate name belongs to the Clifford set used by CDCs."""
    return name.lower() in CLIFFORD_GATE_NAMES


# --------------------------------------------------------------------------
# Operator-norm Clifford approximation (paper Equation 1)
# --------------------------------------------------------------------------


def _phase_align(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Align the global phase of ``v`` to ``u`` before comparing them.

    Global phase is physically irrelevant; without alignment the operator norm
    would penalise gates that differ only by a phase.
    """
    overlap = np.trace(u.conj().T @ v)
    if abs(overlap) < 1e-12:
        return v
    phase = overlap / abs(overlap)
    return v * np.conj(phase)


def operator_norm_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Operator (spectral) norm distance ``||U - V||_inf`` (Equation 1).

    The distance is computed up to global phase, which matches how the paper
    uses it to pick the "closest Clifford gate".
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise GateDefinitionError("operands must have identical shapes")
    aligned = _phase_align(u, v)
    diff = u - aligned
    return float(np.linalg.norm(diff, ord=2))


def closest_clifford(name: str, params: Sequence[float] = ()) -> str:
    """Return the name of the single-qubit Clifford closest to a gate.

    Used by the Clifford Decoy Circuit generator to replace non-Clifford
    single-qubit gates (e.g. ``u1`` becomes ``z`` or ``s`` depending on its
    angle, ``u2``/``u3`` are mapped according to their Euler angles).
    """
    target = gate_matrix(name, params)
    best_name = "id"
    best_dist = float("inf")
    for cname, cmat in single_qubit_clifford_matrices().items():
        dist = operator_norm_distance(target, cmat)
        if dist < best_dist - 1e-12:
            best_dist = dist
            best_name = cname
    return best_name


# --------------------------------------------------------------------------
# Gate dataclass
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """A single instruction in a quantum circuit.

    Attributes:
        name: lower-case gate name (``"cx"``, ``"rz"``, ``"measure"``, ...).
        qubits: tuple of qubit indices the gate acts on.
        params: continuous parameters (rotation angles).
        duration: optional duration in nanoseconds. ``None`` means "use the
            backend's calibrated latency"; an explicit value is honoured by the
            scheduler (used by ``delay`` and by DD pulse insertion).
        label: optional marker, used to tag DD pulses so noise modelling and
            analysis can distinguish them from program gates.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    duration: Optional[float] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        self._validate()

    def _validate(self) -> None:
        if not self.qubits:
            raise GateDefinitionError(f"gate '{self.name}' must act on at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise GateDefinitionError(
                f"gate '{self.name}' acts on duplicate qubits {self.qubits}"
            )
        if any(q < 0 for q in self.qubits):
            raise GateDefinitionError("qubit indices must be non-negative")
        if self.name in _TWO_QUBIT_NAMES and len(self.qubits) != 2:
            raise GateDefinitionError(f"gate '{self.name}' requires exactly 2 qubits")
        if self.name in _PARAMETRIC_ARITY:
            expected = _PARAMETRIC_ARITY[self.name]
            if len(self.params) != expected:
                raise GateDefinitionError(
                    f"gate '{self.name}' expects {expected} parameter(s),"
                    f" got {len(self.params)}"
                )
        if (
            self.name in _FIXED_MATRICES
            and self.name not in _TWO_QUBIT_NAMES
            and len(self.qubits) != 1
        ):
            raise GateDefinitionError(f"gate '{self.name}' requires exactly 1 qubit")
        if self.name == "delay" and self.duration is None:
            raise GateDefinitionError("delay gates require an explicit duration")

    # -- classification helpers -------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits the gate acts on."""
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        """True for CNOT/CZ/SWAP-style entangling gates."""
        return self.name in _TWO_QUBIT_NAMES

    @property
    def is_measurement(self) -> bool:
        return self.name == "measure"

    @property
    def is_barrier(self) -> bool:
        return self.name == "barrier"

    @property
    def is_delay(self) -> bool:
        return self.name == "delay"

    @property
    def is_unitary(self) -> bool:
        return self.name not in NON_UNITARY_NAMES

    @property
    def is_clifford(self) -> bool:
        """True if the gate belongs to the Clifford group.

        Parametric gates are Clifford only when their angles land on a
        Clifford point (multiples of pi/2 for rz/u1, etc.).
        """
        if self.name in CLIFFORD_GATE_NAMES:
            return True
        if not self.is_unitary:
            return False
        if self.name in ("rz", "u1", "p"):
            angle = self.params[0] % (2 * math.pi)
            return any(
                math.isclose(angle, k * math.pi / 2, abs_tol=1e-9) for k in range(5)
            )
        if self.name in ("rx", "ry"):
            angle = self.params[0] % (2 * math.pi)
            return any(
                math.isclose(angle, k * math.pi / 2, abs_tol=1e-9) for k in range(5)
            )
        return False

    @property
    def is_dd_pulse(self) -> bool:
        """True if the gate was inserted by a DD pass (tagged via ``label``)."""
        return self.label is not None and self.label.startswith("dd")

    # -- functional updates ------------------------------------------------------

    def matrix(self) -> np.ndarray:
        """Unitary matrix of the gate (raises for non-unitary instructions)."""
        return gate_matrix(self.name, self.params)

    def with_qubits(self, *qubits: int) -> "Gate":
        """Return a copy of the gate remapped onto different qubits.

        Fast path: name/params/arity are unchanged from this (already
        validated) gate, so only the qubit-specific checks are re-run —
        ``dataclasses.replace`` with its full re-validation made remapping
        the hottest allocation in SABRE routing.
        """
        if len(qubits) != len(self.qubits):
            raise GateDefinitionError(
                f"expected {len(self.qubits)} qubits, got {len(qubits)}"
            )
        new_qubits = tuple(int(q) for q in qubits)
        if len(set(new_qubits)) != len(new_qubits) or any(q < 0 for q in new_qubits):
            return replace(self, qubits=new_qubits)  # full validation -> error
        remapped = object.__new__(Gate)
        object.__setattr__(remapped, "name", self.name)
        object.__setattr__(remapped, "qubits", new_qubits)
        object.__setattr__(remapped, "params", self.params)
        object.__setattr__(remapped, "duration", self.duration)
        object.__setattr__(remapped, "label", self.label)
        return remapped

    def with_duration(self, duration: float) -> "Gate":
        """Return a copy of the gate with an explicit duration."""
        return replace(self, duration=float(duration))

    def with_label(self, label: str) -> "Gate":
        """Return a copy of the gate carrying a label."""
        return replace(self, label=label)

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        params = ", ".join(f"{p:.4g}" for p in self.params)
        body = f"{self.name}({params})" if params else self.name
        return f"{body} q{list(self.qubits)}"

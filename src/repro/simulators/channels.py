"""Kraus-operator builders for the noise channels used by the executor.

All channels are returned as lists of Kraus matrices ``[K_0, K_1, ...]`` with
``sum_k K_k^dagger K_k = I``.  Single-qubit channels are 2x2, two-qubit
channels 4x4.  The noisy executor's compiled programs keep each channel as
this Kraus list and derive what an engine reads from it on first use (see
:class:`~repro.hardware.program.ResolvedOp`); the test oracle's
``DensityMatrixSimulator.apply_kraus`` (``tests/oracle/density_matrix.py``)
applies a list directly.

The channel set mirrors what the ADAPT evaluation needs:

* ``depolarizing`` for gate errors (single- and two-qubit),
* ``amplitude_damping`` for T1 relaxation during idle windows,
* ``phase_damping`` for dephasing during idle windows — the component that
  dynamical decoupling can refocus,
* ``bit_flip`` / ``phase_flip`` as simple building blocks for tests,
* ``measurement_confusion`` as a classical assignment-error matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "ChannelError",
    "amplitude_damping",
    "bit_flip",
    "depolarizing",
    "depolarizing_two_qubit",
    "identity_channel",
    "is_valid_channel",
    "measurement_confusion",
    "phase_damping",
    "phase_flip",
    "thermal_relaxation",
    "compose_channels",
]


class ChannelError(ValueError):
    """Raised when a channel is requested with invalid parameters."""


def _check_probability(p: float, name: str) -> float:
    if not 0.0 <= p <= 1.0:
        raise ChannelError(f"{name} must be in [0, 1], got {p}")
    return float(p)


def identity_channel(num_qubits: int = 1) -> List[np.ndarray]:
    """The trivial channel."""
    return [np.eye(2 ** num_qubits, dtype=complex)]


def depolarizing(p: float) -> List[np.ndarray]:
    """Single-qubit depolarizing channel with error probability ``p``.

    With probability ``p`` one of X, Y, Z is applied uniformly at random.
    """
    p = _check_probability(p, "depolarizing probability")
    i = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return [
        math.sqrt(1 - p) * i,
        math.sqrt(p / 3) * x,
        math.sqrt(p / 3) * y,
        math.sqrt(p / 3) * z,
    ]


def _pauli_products() -> Tuple[np.ndarray, ...]:
    """The 16 two-qubit Pauli products ``a ⊗ b``, ``a`` major, I first."""
    i = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    paulis = [i, x, y, z]
    return tuple(np.kron(a, b) for a in paulis for b in paulis)


#: Built once: every entry is 0, ±1 or ±i, so scaling a product by a weight
#: gives the bytes scaling a fresh ``np.kron`` would.
_PAULI_PRODUCTS = _pauli_products()


@lru_cache(maxsize=4096)
def _depolarizing_two_qubit_kraus(p: float) -> Tuple[np.ndarray, ...]:
    """The 16 Kraus matrices for one error probability, built once.

    A device has one two-qubit error rate per *link*, so a device-scale
    program asks for the same handful of probabilities over and over; each
    is built once, from the shared unit products.
    """
    return tuple(
        math.sqrt(1 - p if index == 0 else p / 15) * product
        for index, product in enumerate(_PAULI_PRODUCTS)
    )


def depolarizing_two_qubit(p: float) -> List[np.ndarray]:
    """Two-qubit depolarizing channel with error probability ``p``.

    With probability ``p`` one of the 15 non-identity two-qubit Paulis is
    applied uniformly at random.  Used for CNOT gate errors.  Callers own
    the returned matrices (they are fresh copies of a memoized build).
    """
    p = _check_probability(p, "depolarizing probability")
    return [k.copy() for k in _depolarizing_two_qubit_kraus(p)]


def bit_flip(p: float) -> List[np.ndarray]:
    """Bit-flip channel: X with probability ``p``."""
    p = _check_probability(p, "bit-flip probability")
    i = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    return [math.sqrt(1 - p) * i, math.sqrt(p) * x]


def phase_flip(p: float) -> List[np.ndarray]:
    """Phase-flip channel: Z with probability ``p``."""
    p = _check_probability(p, "phase-flip probability")
    i = np.eye(2, dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return [math.sqrt(1 - p) * i, math.sqrt(p) * z]


def amplitude_damping(gamma: float) -> List[np.ndarray]:
    """Amplitude damping with decay probability ``gamma`` (T1 relaxation)."""
    gamma = _check_probability(gamma, "amplitude damping gamma")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return [k0, k1]


def phase_damping(lam: float) -> List[np.ndarray]:
    """Phase damping with dephasing probability ``lam`` (pure T2 decay)."""
    lam = _check_probability(lam, "phase damping lambda")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)
    return [k0, k1]


def thermal_relaxation(duration_ns: float, t1_ns: float, t2_ns: float) -> List[np.ndarray]:
    """Combined T1/T2 relaxation over ``duration_ns`` nanoseconds.

    Implemented as amplitude damping (rate ``1/T1``) composed with pure phase
    damping carrying the excess dephasing (``1/T2 - 1/(2*T1)``), the standard
    decomposition for ``T2 <= 2*T1``.
    """
    if duration_ns < 0:
        raise ChannelError("duration must be non-negative")
    if t1_ns <= 0 or t2_ns <= 0:
        raise ChannelError("T1 and T2 must be positive")
    effective_t2 = min(t2_ns, 2 * t1_ns)
    gamma = 1.0 - math.exp(-duration_ns / t1_ns)
    pure_dephasing_rate = max(0.0, 1.0 / effective_t2 - 1.0 / (2 * t1_ns))
    lam = 1.0 - math.exp(-2.0 * duration_ns * pure_dephasing_rate)
    return compose_channels(amplitude_damping(gamma), phase_damping(lam))


def compose_channels(
    first: Sequence[np.ndarray], second: Sequence[np.ndarray]
) -> List[np.ndarray]:
    """Sequential composition: ``second`` applied after ``first``."""
    return [np.asarray(b) @ np.asarray(a) for a in first for b in second]


def measurement_confusion(p01: float, p10: float) -> np.ndarray:
    """Classical 2x2 assignment matrix.

    ``p01`` is the probability of reading 1 when the qubit is 0, and ``p10``
    the probability of reading 0 when the qubit is 1 (readout of |1> is
    typically worse on IBMQ hardware, so ``p10 > p01`` by default in the
    calibrations).  Columns are true states, rows are observed outcomes.
    """
    p01 = _check_probability(p01, "p01")
    p10 = _check_probability(p10, "p10")
    return np.array([[1 - p01, p10], [p01, 1 - p10]], dtype=float)


def is_valid_channel(kraus: Sequence[np.ndarray], atol: float = 1e-9) -> bool:
    """Check the completeness relation ``sum_k K_k^dagger K_k = I``."""
    kraus = [np.asarray(k, dtype=complex) for k in kraus]
    if not kraus:
        return False
    dim = kraus[0].shape[1]
    total = np.zeros((dim, dim), dtype=complex)
    for k in kraus:
        total += k.conj().T @ k
    return bool(np.allclose(total, np.eye(dim), atol=atol))

"""Gate- and readout-level noise model built from a calibration snapshot.

This covers the paper's "active errors" (Section 2.2): depolarizing error on
single-qubit gates (~0.1%), two-qubit gates (1-2%) and asymmetric readout
assignment error (~2-4%).  Idling errors are handled separately by
:mod:`repro.noise.idling` because they depend on the schedule, the concurrent
CNOT activity and the DD plan rather than on individual gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..circuits.gates import Gate
from ..hardware.calibration import Calibration
from ..simulators import channels

__all__ = ["NoiseOp", "GateNoiseModel"]


@dataclass(frozen=True)
class NoiseOp:
    """A noise operation to be applied by an execution engine.

    ``kind`` is one of:

    * ``"kraus"`` — payload is a list of Kraus matrices;
    * ``"rz"`` / ``"rx"`` — payload is a rotation angle in radians (coherent
      error);
    * ``"gaussian_phase"`` — payload is the standard deviation (radians) of a
      zero-mean Gaussian random Z rotation (quasi-static dephasing).  The
      density-matrix engine converts it into an equivalent phase-damping
      channel; the trajectory engine samples a concrete angle per trajectory.
    """

    kind: str
    qubits: Tuple[int, ...]
    payload: object

    def __post_init__(self) -> None:
        if self.kind not in ("kraus", "rz", "rx", "gaussian_phase"):
            raise ValueError(f"unknown noise op kind '{self.kind}'")


class GateNoiseModel:
    """Maps gates to error channels using per-qubit / per-link calibration."""

    def __init__(self, calibration: Calibration) -> None:
        self._calibration = calibration

    @property
    def calibration(self) -> Calibration:
        return self._calibration

    # ------------------------------------------------------------------

    def gate_noise(self, gate: Gate) -> List[NoiseOp]:
        """Noise operations to apply after the ideal unitary of ``gate``.

        DD pulses (``gate.is_dd_pulse``) return no noise here: their cost is
        accounted for by the idle-window model, which knows the pulse count
        and the per-qubit pulse calibration.
        """
        if gate.is_barrier or gate.is_delay or gate.is_measurement:
            return []
        if gate.is_dd_pulse:
            return []
        if gate.name == "reset":
            return []
        if gate.is_two_qubit:
            error = self._two_qubit_error(gate)
            if error <= 0:
                return []
            return [
                NoiseOp(
                    kind="kraus",
                    qubits=tuple(gate.qubits),
                    payload=channels.depolarizing_two_qubit(error),
                )
            ]
        qubit = gate.qubits[0]
        error = self._calibration.qubit(qubit).sq_error
        if error <= 0:
            return []
        return [
            NoiseOp(kind="kraus", qubits=(qubit,), payload=channels.depolarizing(error))
        ]

    def _two_qubit_error(self, gate: Gate) -> float:
        a, b = gate.qubits
        try:
            base = self._calibration.cnot_error(a, b)
        except KeyError:
            # Gate on a pair that is not a physical link (pre-routing circuit):
            # charge the average link error instead of failing.
            base = self._calibration.average_cnot_error()
        if gate.name == "swap":
            # A SWAP decomposes into three CNOTs.
            return 1.0 - (1.0 - base) ** 3
        return base

    # ------------------------------------------------------------------

    def readout_confusion(self, qubit: int) -> np.ndarray:
        cal = self._calibration.qubit(qubit)
        return channels.measurement_confusion(cal.readout_p01, cal.readout_p10)

    def apply_readout_error(
        self, probabilities: np.ndarray, qubits: Sequence[int]
    ) -> np.ndarray:
        """Apply per-qubit classical assignment errors to a probability vector.

        ``probabilities`` is indexed by bitstrings over ``qubits`` with the
        first qubit as the most significant bit.
        """
        n = len(qubits)
        probs = np.asarray(probabilities, dtype=float).reshape((2,) * n)
        for position, qubit in enumerate(qubits):
            confusion = self.readout_confusion(qubit)
            probs = np.moveaxis(
                np.tensordot(confusion, probs, axes=([1], [position])), 0, position
            )
        flat = probs.reshape(-1)
        flat[flat < 0] = 0.0
        return flat / flat.sum()

"""Idle-window noise: decoherence, crosstalk amplification and DD refocusing.

This module is the behavioural model that stands in for the physics of the
IBMQ devices (DESIGN.md, substitution table).  For every idle window the
executor asks for the noise operations to apply to the idle qubit, given

* the window duration,
* the CNOT activity concurrent with the window (link + overlap time),
* the DD pulse train protecting the window, if any, and
* the per-qubit / per-pair calibration values.

The model captures the phenomena the paper characterises in Section 3:

1. an idle qubit relaxes (T1) and dephases (Markovian T2 component) — neither
   is refocusable by DD;
2. low-frequency *quasi-static* dephasing and a *coherent* ZZ-like phase
   accumulate while the qubit idles; both are amplified (up to ~10x) while
   CNOTs run on nearby links (crosstalk) — this is the component DD refocuses;
3. DD refocusing quality depends on pulse spacing relative to the noise
   correlation time, so densely repeated XY4 outperforms the sparse IBMQ-DD
   pair for long windows (Figure 16);
4. DD is not free: every pulse adds depolarizing error, and qubits with
   miscalibrated pulses accumulate a coherent over-rotation, which is why DD
   *hurts* some qubits (Figure 5) and why applying DD to every qubit is
   sub-optimal (Figure 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..dd.sequences import DDPulseTrain
from ..hardware.calibration import Calibration
from ..simulators import channels
from .model import NoiseOp

__all__ = ["IdleWindowEffect", "IdleNoiseModel"]

@dataclass(frozen=True)
class IdleWindowEffect:
    """Aggregate noise accumulated by one qubit over one idle window."""

    qubit: int
    duration_ns: float
    t1_decay: float              # amplitude damping probability
    markovian_dephasing: float   # phase damping probability (not refocusable)
    static_phase_std: float      # std-dev of the quasi-static random phase (rad)
    coherent_phase: float        # deterministic accumulated phase (rad)
    dd_suppression: float        # factor applied to the two terms above (1 = no DD)
    dd_pulse_count: int
    dd_pulse_depolarizing: float  # combined depolarizing probability of the pulses
    dd_coherent_rotation: float   # accumulated coherent pulse error (rad, X axis)

    def noise_ops(self) -> List[NoiseOp]:
        """Noise operations equivalent to this window, in application order."""
        ops: List[NoiseOp] = []
        q = (self.qubit,)
        if self.t1_decay > 0:
            ops.append(NoiseOp("kraus", q, channels.amplitude_damping(self.t1_decay)))
        if self.markovian_dephasing > 0:
            ops.append(NoiseOp("kraus", q, channels.phase_damping(self.markovian_dephasing)))
        effective_std = self.static_phase_std * self.dd_suppression
        if effective_std > 0:
            ops.append(NoiseOp("gaussian_phase", q, effective_std))
        effective_phase = self.coherent_phase * self.dd_suppression
        if abs(effective_phase) > 0:
            ops.append(NoiseOp("rz", q, effective_phase))
        # Nonzero check, not a sign check: miscalibrated pulses can over- OR
        # under-rotate (negative dd_coherent_error calibrations), and the
        # closed-form estimate (fidelity_proxy) counts the rotation through
        # cos² either way — the applied noise must agree.
        if self.dd_coherent_rotation != 0:
            ops.append(NoiseOp("rx", q, self.dd_coherent_rotation))
        if self.dd_pulse_depolarizing > 0:
            ops.append(NoiseOp("kraus", q, channels.depolarizing(self.dd_pulse_depolarizing)))
        return ops

    @property
    def is_dd_protected(self) -> bool:
        return self.dd_pulse_count > 0


def _fold(seed: float, terms: np.ndarray) -> float:
    """``seed`` plus each term, added left to right.

    ``np.add.accumulate`` makes the same sequence of IEEE additions as a
    Python loop; ``np.sum``'s pairwise summation would not.
    """
    return float(np.add.accumulate(np.concatenate(((seed,), terms)))[-1])


class IdleNoiseModel:
    """Computes :class:`IdleWindowEffect` values from calibration data."""

    def __init__(self, calibration: Calibration) -> None:
        self._calibration = calibration

    @property
    def calibration(self) -> Calibration:
        return self._calibration

    # ------------------------------------------------------------------

    def window_effect(
        self,
        qubit: int,
        duration_ns: float,
        crosstalk: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
        dd_train: Optional[DDPulseTrain] = None,
    ) -> IdleWindowEffect:
        """Noise accumulated by ``qubit`` idling for ``duration_ns``.

        Args:
            crosstalk: the CNOT activity overlapping the window, as three
                aligned arrays over its links in ascending link order: the
                ``dephasing_multiplier - 1.0`` and ``zz_shift_rate`` that
                ``qubit`` feels from each link (``qubit``'s row of
                :meth:`Calibration.crosstalk_columns`, gathered at the
                window's links) and each link's overlap in ns (from
                :meth:`GateSequenceTable.concurrent_cnots`).
            dd_train: the DD pulse train protecting this window, or ``None``.
        """
        if duration_ns < 0:
            raise ValueError("window duration must be non-negative")
        cal = self._calibration.qubit(qubit)
        duration = float(duration_ns)

        t1_decay = 1.0 - math.exp(-duration / cal.t1_ns)
        pure_rate = max(0.0, 1.0 / cal.t2_ns - 1.0 / (2.0 * cal.t1_ns))
        markovian = 1.0 - math.exp(-2.0 * duration * pure_rate)

        # Quasi-static dephasing: the background rate, amplified while CNOTs
        # are active on other links (the crosstalk the paper measures to make
        # an idle qubit ~10x more error prone).
        effective_time = duration
        coherent_phase = cal.background_zz_rate * duration
        if crosstalk is not None:
            excess, zz_rates, overlaps = crosstalk
            effective_time = _fold(effective_time, excess * overlaps)
            coherent_phase = _fold(coherent_phase, zz_rates * overlaps)
        static_std = cal.static_dephasing_rate * effective_time

        suppression = 1.0
        pulse_count = 0
        pulse_depolarizing = 0.0
        coherent_rotation = 0.0
        if dd_train is not None and dd_train.num_pulses > 0:
            suppression = self.dd_suppression_factor(qubit, dd_train)
            pulse_count = dd_train.num_pulses
            pulse_depolarizing = 1.0 - (1.0 - cal.dd_pulse_error) ** pulse_count
            coherent_rotation = cal.dd_coherent_error * pulse_count

        return IdleWindowEffect(
            qubit=qubit,
            duration_ns=duration,
            t1_decay=t1_decay,
            markovian_dephasing=markovian,
            static_phase_std=static_std,
            coherent_phase=coherent_phase,
            dd_suppression=suppression,
            dd_pulse_count=pulse_count,
            dd_pulse_depolarizing=min(1.0, pulse_depolarizing),
            dd_coherent_rotation=coherent_rotation,
        )

    def dd_suppression_factor(self, qubit: int, dd_train: DDPulseTrain) -> float:
        """Residual fraction of refocusable noise that survives the DD train.

        The factor interpolates between the per-qubit floor (best achievable
        refocusing) and 1 (no benefit) as the pulse spacing approaches the
        noise correlation time: closely spaced pulses refocus low-frequency
        noise well, sparse pulses do not.
        """
        cal = self._calibration.qubit(qubit)
        spacing = max(dd_train.average_spacing, 1e-9)
        ratio = spacing / max(cal.noise_correlation_ns, 1e-9)
        return float(min(1.0, cal.dd_floor + ratio))

    # ------------------------------------------------------------------

    def fidelity_proxy(self, effect: IdleWindowEffect, equator_weight: float = 0.5) -> float:
        """Closed-form estimate of the idle qubit's state fidelity.

        Useful for quick characterisation sweeps and sanity tests without a
        full circuit simulation: coherences decay with every dephasing source
        while populations decay with T1 and the DD pulse errors.
        """
        dephase = math.exp(-(effect.static_phase_std * effect.dd_suppression) ** 2 / 2.0)
        dephase *= math.sqrt(max(0.0, 1.0 - effect.markovian_dephasing))
        dephase *= math.cos(effect.coherent_phase * effect.dd_suppression)
        depol = 1.0 - 2.0 * effect.dd_pulse_depolarizing / 3.0
        relax = 1.0 - effect.t1_decay / 2.0
        pulse_coherent = math.cos(effect.dd_coherent_rotation / 2.0) ** 2
        equator = 0.5 * (1.0 + max(-1.0, dephase) * depol) * pulse_coherent
        pole = relax * depol * pulse_coherent
        fidelity = equator_weight * equator + (1.0 - equator_weight) * pole
        return float(max(0.0, min(1.0, fidelity)))

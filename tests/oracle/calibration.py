"""The per-pair reference of calibration generation.

Production draws every (spectator qubit, link) crosstalk value into two
``(qubits, links)`` float arrays.  This is the form it replaced: the same
draws stored as one :class:`CrosstalkEntry` per pair in a dict keyed by
``(qubit, canonical link)``, read back by dict lookups, and fingerprinted by
sorting that dict's items.  The differential suite
(``tests/test_calibration_differential.py``) compares production with it bit
for bit: every drawn float, the ``crosstalk_columns`` rows against
:meth:`ReferenceCalibration.crosstalk_rows`, the calibration fingerprint and
the generator state left behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.hardware import topologies
from repro.hardware.calibration import (
    LinkCalibration,
    QubitCalibration,
    calibration_seed,
)
from repro.hardware.devices import DeviceSpec
from repro.store.keys import device_fingerprint, fingerprint

Edge = Tuple[int, int]


@dataclass(frozen=True)
class CrosstalkEntry:
    """Effect of CNOT activity on one link on one spectator qubit."""

    dephasing_multiplier: float   # multiplies the quasi-static dephasing rate
    zz_shift_rate: float          # signed coherent phase accumulation, rad/ns


#: The crosstalk of a (qubit, link) pair without a draw: a qubit on the
#: link, a link the device lacks or a qubit outside the register.
_NEUTRAL_CROSSTALK = CrosstalkEntry(dephasing_multiplier=1.0, zz_shift_rate=0.0)


def _canonical_link(link: Edge) -> Edge:
    a, b = link
    return (a, b) if a <= b else (b, a)


@dataclass
class ReferenceCalibration:
    """A calibration snapshot with one crosstalk entry per (qubit, link) pair."""

    device: DeviceSpec
    cycle: int
    qubits: Dict[int, QubitCalibration]
    links: Dict[Edge, LinkCalibration]
    crosstalk: Dict[Tuple[int, Edge], CrosstalkEntry]

    def crosstalk_on(self, qubit: int, link: Edge) -> CrosstalkEntry:
        return self.crosstalk.get((qubit, _canonical_link(link)), _NEUTRAL_CROSSTALK)

    def crosstalk_rows(
        self, qubit: int, links: Sequence[Edge]
    ) -> Tuple[np.ndarray, np.ndarray]:
        entries = [self.crosstalk_on(qubit, link) for link in links]
        return (
            np.array([e.dephasing_multiplier - 1.0 for e in entries], dtype=float),
            np.array([e.zz_shift_rate for e in entries], dtype=float),
        )


def _lognormal(rng: np.random.Generator, mean: float, sigma: float) -> float:
    mu = np.log(mean) - sigma ** 2 / 2
    return float(rng.lognormal(mu, sigma))


def _distance_lookup(device: DeviceSpec):
    array = topologies.distance_array(device.edges, device.num_qubits)
    far = device.num_qubits

    def lookup(a: int, b: int) -> int:
        value = array[a, b]
        return int(value) if math.isfinite(value) else far

    return lookup


def generate_calibration(
    device: DeviceSpec,
    cycle: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> ReferenceCalibration:
    """The same draws, in the same order, with the per-pair dict loop."""
    rng = rng or np.random.default_rng(calibration_seed(device, cycle))

    qubits: Dict[int, QubitCalibration] = {}
    for q in range(device.num_qubits):
        t1_ns = _lognormal(rng, device.t1_us * 1000.0, 0.25)
        t2_raw = _lognormal(rng, device.t2_us * 1000.0, 0.30)
        t2_ns = min(t2_raw, 2.0 * t1_ns)
        readout_mean = device.measurement_error
        p10 = min(0.5, _lognormal(rng, readout_mean * 1.3, 0.35))
        p01 = min(0.5, _lognormal(rng, readout_mean * 0.7, 0.35))
        dd_coherent = 0.0
        if rng.random() < 0.10:
            dd_coherent = float(abs(rng.normal(0.0, 0.008)))
        qubits[q] = QubitCalibration(
            t1_ns=t1_ns,
            t2_ns=t2_ns,
            sq_error=min(0.02, _lognormal(rng, device.sq_error, 0.4)),
            readout_p01=p01,
            readout_p10=p10,
            static_dephasing_rate=_lognormal(rng, device.idle_dephasing_rate, 0.5),
            background_zz_rate=float(rng.normal(0.0, device.idle_dephasing_rate * 0.5)),
            noise_correlation_ns=_lognormal(rng, 4000.0, 0.6),
            dd_floor=float(rng.uniform(0.03, 0.35)),
            dd_pulse_error=min(0.02, _lognormal(rng, device.sq_error * 0.6, 0.4)),
            dd_coherent_error=dd_coherent,
        )

    links: Dict[Edge, LinkCalibration] = {}
    for edge in device.edges:
        edge = _canonical_link(edge)
        error = min(0.15, _lognormal(rng, device.cnot_error, 0.35))
        spread = device.cnot_duration_spread
        low = device.cnot_duration_ns * 0.68
        high = device.cnot_duration_ns * spread
        duration = float(rng.uniform(low, high * 0.75))
        if rng.random() < 0.12:
            duration = float(rng.uniform(high * 0.8, high))
        links[edge] = LinkCalibration(cnot_error=error, duration_ns=duration)

    crosstalk: Dict[Tuple[int, Edge], CrosstalkEntry] = {}
    distances = _distance_lookup(device)
    for qubit, link in device.qubit_link_combinations():
        link = _canonical_link(link)
        dist = min(distances(qubit, link[0]), distances(qubit, link[1]))
        if dist <= 1:
            multiplier = _lognormal(rng, 8.0, 0.55)
            zz_scale = 6.0
        elif dist == 2:
            multiplier = _lognormal(rng, 2.5, 0.6)
            zz_scale = 2.0
        else:
            multiplier = _lognormal(rng, 0.9, 0.7)
            zz_scale = 0.4
        if rng.random() < 0.03:
            multiplier *= float(rng.uniform(3.0, 8.0))
            zz_scale *= 3.0
        zz_rate = float(
            rng.normal(0.0, device.idle_dephasing_rate * zz_scale)
        )
        crosstalk[(qubit, link)] = CrosstalkEntry(
            dephasing_multiplier=max(1.0, multiplier),
            zz_shift_rate=zz_rate,
        )

    return ReferenceCalibration(
        device=device, cycle=cycle, qubits=qubits, links=links, crosstalk=crosstalk
    )


def calibration_fingerprint(calibration: ReferenceCalibration) -> str:
    """The fingerprint payload built from the sorted per-pair dict."""
    payload = {
        "device": device_fingerprint(calibration.device),
        "cycle": calibration.cycle,
        "qubits": {
            str(q): [
                c.t1_ns,
                c.t2_ns,
                c.sq_error,
                c.readout_p01,
                c.readout_p10,
                c.static_dephasing_rate,
                c.background_zz_rate,
                c.noise_correlation_ns,
                c.dd_floor,
                c.dd_pulse_error,
                c.dd_coherent_error,
            ]
            for q, c in sorted(calibration.qubits.items())
        },
        "links": {
            f"{a}-{b}": [link.cnot_error, link.duration_ns]
            for (a, b), link in sorted(calibration.links.items())
        },
        "crosstalk": {
            f"{q}@{a}-{b}": [entry.dephasing_multiplier, entry.zz_shift_rate]
            for (q, (a, b)), entry in sorted(calibration.crosstalk.items())
        },
    }
    return fingerprint(payload)

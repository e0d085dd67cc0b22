"""Calibration snapshots: per-qubit / per-link noise parameters with drift.

Real IBMQ devices are re-calibrated roughly daily and their error landscape
shifts between cycles (the paper's Figure 6 shows DD flipping from helpful to
harmful for the same qubit across two calibrations).  The reproduction models
a calibration cycle as a deterministic, seeded sample around the device
averages of :class:`~repro.hardware.devices.DeviceSpec`:

* per-qubit: T1/T2, single-qubit gate error, readout asymmetry, background
  quasi-static dephasing rate, noise correlation time, DD suppression floor
  and coherent DD pulse miscalibration;
* per-link: CNOT error rate and CNOT duration (heterogeneous latencies are one
  of the three causes of idling the paper identifies);
* per (spectator qubit, link): crosstalk amplification of the quasi-static
  dephasing and a coherent ZZ-like phase-shift rate while a CNOT is active on
  that link.  Adjacent spectators are hit hardest (the paper measures an idle
  qubit to be ~10x more vulnerable next to an active CNOT) but a heavy tail
  extends to non-neighbouring pairs, which is why localized characterisation
  is insufficient (Section 3.3).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .devices import DeviceSpec

__all__ = [
    "QubitCalibration",
    "LinkCalibration",
    "CrosstalkEntry",
    "Calibration",
    "calibration_seed",
    "generate_calibration",
]

Edge = Tuple[int, int]


def _canonical_link(link: Edge) -> Edge:
    a, b = link
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class QubitCalibration:
    """Per-qubit calibration values for one cycle."""

    t1_ns: float
    t2_ns: float
    sq_error: float
    readout_p01: float          # probability of reading 1 when the state is 0
    readout_p10: float          # probability of reading 0 when the state is 1
    static_dephasing_rate: float  # rad/ns std of background quasi-static noise
    background_zz_rate: float     # rad/ns coherent background phase drift
    noise_correlation_ns: float   # correlation time of the low-frequency noise
    dd_floor: float               # residual fraction of refocusable noise under ideal DD
    dd_pulse_error: float         # depolarizing probability per DD pulse
    dd_coherent_error: float      # coherent over-rotation (rad) per DD pulse


@dataclass(frozen=True)
class LinkCalibration:
    """Per-link (CNOT) calibration values for one cycle."""

    cnot_error: float
    duration_ns: float


@dataclass(frozen=True)
class CrosstalkEntry:
    """Effect of CNOT activity on one link on one spectator qubit."""

    dephasing_multiplier: float   # multiplies the quasi-static dephasing rate
    zz_shift_rate: float          # signed coherent phase accumulation, rad/ns


@dataclass
class Calibration:
    """A full calibration snapshot of a device."""

    device: DeviceSpec
    cycle: int
    qubits: Dict[int, QubitCalibration]
    links: Dict[Edge, LinkCalibration]
    crosstalk: Dict[Tuple[int, Edge], CrosstalkEntry]

    # -- lookups ------------------------------------------------------------

    def qubit(self, index: int) -> QubitCalibration:
        return self.qubits[index]

    def link(self, link: Edge) -> LinkCalibration:
        return self.links[_canonical_link(link)]

    def crosstalk_on(self, qubit: int, link: Edge) -> CrosstalkEntry:
        """Crosstalk felt by ``qubit`` while a CNOT runs on ``link``."""
        return self.crosstalk.get(
            (qubit, _canonical_link(link)), CrosstalkEntry(1.0, 0.0)
        )

    def cnot_duration(self, a: int, b: int) -> float:
        return self.link((a, b)).duration_ns

    def cnot_error(self, a: int, b: int) -> float:
        return self.link((a, b)).cnot_error

    # -- aggregates (Table 3 style summaries) -------------------------------

    def average_cnot_error(self) -> float:
        return float(np.mean([l.cnot_error for l in self.links.values()]))

    def average_measurement_error(self) -> float:
        return float(
            np.mean(
                [(q.readout_p01 + q.readout_p10) / 2 for q in self.qubits.values()]
            )
        )

    def average_t1_us(self) -> float:
        return float(np.mean([q.t1_ns for q in self.qubits.values()]) / 1000.0)

    def average_t2_us(self) -> float:
        return float(np.mean([q.t2_ns for q in self.qubits.values()]) / 1000.0)

    def worst_cnot_duration_ratio(self) -> float:
        durations = [l.duration_ns for l in self.links.values()]
        if not durations:
            return 1.0
        return float(max(durations) / np.mean(durations))


def calibration_seed(device: DeviceSpec, cycle: int) -> int:
    """The RNG seed of one ``(device, cycle)`` calibration snapshot.

    Derived with ``hashlib.sha256`` over explicit bytes — **never** Python's
    ``hash()``, whose string hashing is randomised per process
    (``PYTHONHASHSEED``).  This derivation is therefore stable across
    processes, interpreter restarts and machines, which the experiment store
    relies on: store keys embed the calibration *content* fingerprint, so a
    process-dependent seed would silently orphan every cached result.  The
    cross-process regression test lives in
    ``tests/test_store.py::TestCalibrationDeterminism``.

    The sampled values additionally depend only on this seed and the draw
    sequence of :func:`generate_calibration` (NumPy ``default_rng``), both of
    which are platform-stable.
    """
    digest = hashlib.sha256(f"{device.name}:{cycle}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _lognormal(rng: np.random.Generator, mean: float, sigma: float) -> float:
    """Lognormal sample whose *mean* is ``mean`` (not the median)."""
    mu = np.log(mean) - sigma ** 2 / 2
    return float(rng.lognormal(mu, sigma))


def generate_calibration(
    device: DeviceSpec,
    cycle: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Calibration:
    """Generate a deterministic calibration snapshot for ``device``.

    The same ``(device, cycle)`` pair always produces the same snapshot, which
    keeps every experiment in the harness reproducible.  Passing an explicit
    ``rng`` overrides the deterministic seeding (used by property-based tests).
    """
    rng = rng or np.random.default_rng(calibration_seed(device, cycle))

    qubits: Dict[int, QubitCalibration] = {}
    for q in range(device.num_qubits):
        t1_ns = _lognormal(rng, device.t1_us * 1000.0, 0.25)
        t2_raw = _lognormal(rng, device.t2_us * 1000.0, 0.30)
        t2_ns = min(t2_raw, 2.0 * t1_ns)
        readout_mean = device.measurement_error
        # |1> readout is typically the worse direction on IBMQ devices.
        p10 = min(0.5, _lognormal(rng, readout_mean * 1.3, 0.35))
        p01 = min(0.5, _lognormal(rng, readout_mean * 0.7, 0.35))
        dd_coherent = 0.0
        # A small fraction of qubits have miscalibrated DD pulses whose coherent
        # error accumulates over long pulse trains; these are the qubits for
        # which DD actively hurts (left tail of Figure 5).
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
        # Durations are spread so that max/mean lands near the device's
        # reported worst-case ratio (1.95x on Toronto, Section 2.4).
        spread = device.cnot_duration_spread
        low = device.cnot_duration_ns * 0.68
        high = device.cnot_duration_ns * spread
        duration = float(rng.uniform(low, high * 0.75))
        if rng.random() < 0.12:
            duration = float(rng.uniform(high * 0.8, high))
        links[edge] = LinkCalibration(cnot_error=error, duration_ns=duration)

    crosstalk: Dict[Tuple[int, Edge], CrosstalkEntry] = {}
    # One memo lookup for the whole loop: the per-combination sweep touches
    # thousands of pairs on the larger heavy-hex devices.
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
        # Heavy tail: occasionally a distant pair couples strongly (frequency
        # collision), which defeats purely local characterisation.
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

    return Calibration(
        device=device, cycle=cycle, qubits=qubits, links=links, crosstalk=crosstalk
    )


def _distance_lookup(device: DeviceSpec):
    """O(1) pair-distance function over the shared topology memo.

    The memoized array is fetched once (its content key costs O(edges) to
    build) and closed over; disconnected pairs read as ``num_qubits`` (far).
    """
    from . import topologies

    array = topologies.distance_array(device.edges, device.num_qubits)
    far = device.num_qubits

    def lookup(a: int, b: int) -> int:
        value = array[a, b]
        return int(value) if math.isfinite(value) else far

    return lookup

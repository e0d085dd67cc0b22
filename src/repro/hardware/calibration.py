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

Every (qubit, link) pair gets its own draw -- 700 on Toronto, 64,262 on a
255-qubit line, about a million on a 1023-qubit one -- so the crosstalk is
held as two read-only ``(qubits, links)`` float arrays,
:attr:`Calibration.dephasing_multipliers` and
:attr:`Calibration.zz_shift_rates`, whose columns are the device's distinct
canonical links (:attr:`Calibration.crosstalk_links`); a qubit on the link
holds the neutral 1.0 and 0.0.  The draws themselves stay one scalar
``Generator`` call at a time, in a fixed order: qubit by qubit, links in
``device.edges`` order, and per pair ``lognormal``, ``random``, ``uniform``
(only on the heavy tail), ``normal``.  Every sampled value, and so every
calibration fingerprint and store key, is a function of that order;
vectorised draws would consume the stream in another order and move them
all.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import topologies
from .devices import DeviceSpec

__all__ = [
    "QubitCalibration",
    "LinkCalibration",
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


@dataclass(eq=False)  # a generated __eq__ would compare arrays and raise
class Calibration:
    """A full calibration snapshot of a device."""

    device: DeviceSpec
    cycle: int
    qubits: Dict[int, QubitCalibration]
    links: Dict[Edge, LinkCalibration]
    #: The distinct canonical links, in the order they first appear in
    #: ``device.edges``: the columns of the two crosstalk arrays.
    crosstalk_links: Tuple[Edge, ...]
    #: Read-only ``(qubit, link column)`` arrays of each pair's
    #: ``dephasing_multiplier`` and ``zz_shift_rate``.
    dephasing_multipliers: np.ndarray
    zz_shift_rates: np.ndarray

    def __post_init__(self) -> None:
        self._columns = {link: i for i, link in enumerate(self.crosstalk_links)}

    # -- lookups ------------------------------------------------------------

    def qubit(self, index: int) -> QubitCalibration:
        return self.qubits[index]

    def link(self, link: Edge) -> LinkCalibration:
        return self.links[_canonical_link(link)]

    def crosstalk_columns(self, links: Sequence[Edge]) -> Tuple[np.ndarray, np.ndarray]:
        """Every qubit's crosstalk over ``links``, as two ``(qubits, links)`` arrays.

        The first holds each pair's ``dephasing_multiplier - 1.0``, the
        second its ``zz_shift_rate``: the two factors the idle-noise model
        multiplies a concurrent CNOT's overlap by.  A link the device lacks
        reads the neutral 0.0 and 0.0.
        """
        columns = [self._columns.get(_canonical_link(link)) for link in links]
        known = [i for i, column in enumerate(columns) if column is not None]
        drawn = [columns[i] for i in known]
        excess = np.zeros((self.device.num_qubits, len(links)))
        zz_rates = np.zeros_like(excess)
        excess[:, known] = self.dephasing_multipliers[:, drawn] - 1.0
        zz_rates[:, known] = self.zz_shift_rates[:, drawn]
        return excess, zz_rates

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

    crosstalk_links = tuple(links)
    multipliers, zz_rates = _draw_crosstalk(device, crosstalk_links, rng)
    return Calibration(
        device=device,
        cycle=cycle,
        qubits=qubits,
        links=links,
        crosstalk_links=crosstalk_links,
        dephasing_multipliers=multipliers,
        zz_shift_rates=zz_rates,
    )


#: Per distance class -- adjacent (distance <= 1), distance 2, farther or
#: disconnected -- the mean and sigma of the dephasing multiplier's
#: lognormal and the scale of the ZZ rate's standard deviation.
_CROSSTALK_CLASSES = ((8.0, 0.55, 6.0), (2.5, 0.6, 2.0), (0.9, 0.7, 0.4))


def _draw_crosstalk(
    device: DeviceSpec, links: Sequence[Edge], rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw every (qubit, link) pair's crosstalk into two read-only arrays.

    Pairs go qubit by qubit, edges in ``device.edges`` order, skipping
    pairs where the qubit is on the edge; an edge listed twice (``(0, 1)``
    and ``(1, 0)``) draws twice and the later draw is kept.  Each pair's
    distance class comes from one array operation on the memoised distance
    array, and each class's lognormal ``mu`` is computed once.
    """
    columns = {link: i for i, link in enumerate(links)}
    edges = [(a, b, columns[_canonical_link((a, b))]) for a, b in device.edges]
    ends = np.array(device.edges, dtype=np.intp).reshape(-1, 2)
    distances = topologies.distance_array(device.edges, device.num_qubits)
    nearest = np.minimum(distances[:, ends[:, 0]], distances[:, ends[:, 1]])
    # Distances are integer hop counts or inf (disconnected): the class is
    # how many of the thresholds 1 and 2 the nearest endpoint lies beyond.
    classes = (nearest > 1).astype(np.intp) + (nearest > 2)
    rate = device.idle_dephasing_rate
    draws = [
        # ``zz_scale`` is tripled before it multiplies the rate on the tail.
        (np.log(mean) - sigma ** 2 / 2, sigma, rate * zz_scale, rate * (zz_scale * 3.0))
        for mean, sigma, zz_scale in _CROSSTALK_CLASSES
    ]

    multipliers = np.ones((device.num_qubits, len(links)))
    zz_rates = np.zeros_like(multipliers)
    lognormal, random, uniform, normal = rng.lognormal, rng.random, rng.uniform, rng.normal
    for qubit in range(device.num_qubits):
        multiplier_row, zz_row = multipliers[qubit], zz_rates[qubit]
        for (a, b, column), pair_class in zip(edges, classes[qubit].tolist()):
            if qubit == a or qubit == b:
                continue
            mu, sigma, zz_std, tail_zz_std = draws[pair_class]
            multiplier = lognormal(mu, sigma)
            # Heavy tail: occasionally a distant pair couples strongly
            # (frequency collision), which defeats purely local
            # characterisation.
            if random() < 0.03:
                multiplier *= uniform(3.0, 8.0)
                zz_std = tail_zz_std
            zz_row[column] = normal(0.0, zz_std)
            # max(1.0, multiplier), without the builtin call per pair.
            multiplier_row[column] = multiplier if multiplier > 1.0 else 1.0
    multipliers.setflags(write=False)
    zz_rates.setflags(write=False)
    return multipliers, zz_rates

"""Device specifications for the IBMQ machines used in the paper.

Each :class:`DeviceSpec` carries the public topology plus the average error
characteristics reported in Table 3 of the paper (for Guadalupe, Paris and
Toronto) or values representative of the smaller characterisation machines
(Rome, London, Casablanca).  Calibration snapshots
(:mod:`repro.hardware.calibration`) scatter per-qubit / per-link values
around these averages.

The registry also carries the larger heavy-hex generations the paper never
ran on: synthetic ``ibm_brooklyn`` (65-qubit Hummingbird) and
``ibm_washington`` (127-qubit Eagle) specs whose error profiles are derived
from the Falcon machines, plus :func:`heavy_hex_device` /
``get_device("heavy_hex:<d>")`` for arbitrary family parameters — the device
axis of the hardware-scaling study.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import topologies

__all__ = [
    "DeviceSpec",
    "DEVICES",
    "get_device",
    "heavy_hex_device",
    "list_devices",
    "synthetic_device",
]

Edge = Tuple[int, int]


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a quantum device.

    Attributes:
        name: device identifier (e.g. ``"ibmq_toronto"``).
        num_qubits: number of physical qubits.
        edges: undirected coupling map.
        cnot_error: average two-qubit gate error rate (fraction, e.g. 0.0152).
        measurement_error: average readout assignment error rate.
        sq_error: average single-qubit gate error rate.
        t1_us: average relaxation time in microseconds.
        t2_us: average dephasing time in microseconds.
        sq_gate_ns: single-qubit pulse duration (X / SX) in nanoseconds.
        cnot_duration_ns: average CNOT duration in nanoseconds.
        cnot_duration_spread: worst-case / average CNOT latency ratio
            (1.95 on Toronto per Section 2.4).
        measurement_ns: readout duration in nanoseconds.
        idle_dephasing_rate: background quasi-static dephasing accumulated by
            an idle qubit, in radians per nanosecond (standard deviation of
            the random phase per unit time).  Scaled up by crosstalk when
            CNOTs are active nearby.
    """

    name: str
    num_qubits: int
    edges: Tuple[Edge, ...]
    cnot_error: float
    measurement_error: float
    sq_error: float
    t1_us: float
    t2_us: float
    sq_gate_ns: float = 35.0
    cnot_duration_ns: float = 440.0
    cnot_duration_spread: float = 1.95
    measurement_ns: float = 3500.0
    idle_dephasing_rate: float = 6.5e-5

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise ValueError("device must have at least one qubit")
        for a, b in self.edges:
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(
                    f"device '{self.name}': edge ({a},{b}) is outside the"
                    f" {self.num_qubits}-qubit register (valid endpoints:"
                    f" 0..{self.num_qubits - 1})"
                )
            if a == b:
                raise ValueError(
                    f"device '{self.name}': self-loop edge ({a},{b}) is not allowed"
                )

    @property
    def edge_set(self) -> frozenset:
        return frozenset(frozenset(edge) for edge in self.edges)

    def has_edge(self, a: int, b: int) -> bool:
        return frozenset((a, b)) in self.edge_set

    def neighbors(self, qubit: int) -> frozenset:
        return topologies.neighbors(self.edges, qubit)

    def distance(self, a: int, b: int) -> int:
        """Coupling-graph distance, served from the process-wide memo.

        Earlier revisions rebuilt the full all-pairs matrix on *every* call
        and raised a bare ``KeyError`` for disconnected pairs; now the memoized
        array is indexed directly and unreachable pairs fail descriptively.
        """
        value = topologies.distance_array(self.edges, self.num_qubits)[a, b]
        if not math.isfinite(value):
            raise ValueError(
                f"qubits {a} and {b} are not connected on device"
                f" '{self.name}' (disconnected coupling map)"
            )
        return int(value)

    def qubit_link_combinations(self) -> List[Tuple[int, Edge]]:
        return topologies.qubit_link_combinations(self.edges, self.num_qubits)


def _falcon(name: str, **overrides) -> DeviceSpec:
    num_qubits = topologies.device_num_qubits(name)
    edges = tuple(topologies.device_edges(name))
    return DeviceSpec(name=name, num_qubits=num_qubits, edges=edges, **overrides)


#: Registry of the devices used in the paper.  Error characteristics for
#: Guadalupe / Paris / Toronto follow Table 3; the rest are representative of
#: the 5- and 7-qubit machines at the time of the study.
DEVICES: Dict[str, DeviceSpec] = {
    "ibmq_guadalupe": _falcon(
        "ibmq_guadalupe",
        cnot_error=0.0127,
        measurement_error=0.0186,
        sq_error=0.00035,
        t1_us=71.7,
        t2_us=85.5,
        cnot_duration_ns=380.0,
        cnot_duration_spread=1.7,
        idle_dephasing_rate=5.5e-5,
    ),
    "ibmq_paris": _falcon(
        "ibmq_paris",
        cnot_error=0.0128,
        measurement_error=0.0247,
        sq_error=0.0004,
        t1_us=80.8,
        t2_us=83.4,
        cnot_duration_ns=440.0,
        cnot_duration_spread=1.8,
        idle_dephasing_rate=7.5e-5,
    ),
    "ibmq_toronto": _falcon(
        "ibmq_toronto",
        cnot_error=0.0152,
        measurement_error=0.0442,
        sq_error=0.0005,
        t1_us=105.0,
        t2_us=114.0,
        cnot_duration_ns=440.0,
        cnot_duration_spread=1.95,
        idle_dephasing_rate=6.5e-5,
    ),
    "ibmq_rome": _falcon(
        "ibmq_rome",
        cnot_error=0.015,
        measurement_error=0.03,
        sq_error=0.0005,
        t1_us=55.0,
        t2_us=60.0,
        cnot_duration_ns=500.0,
        cnot_duration_spread=1.6,
        idle_dephasing_rate=1.0e-4,
    ),
    "ibmq_london": _falcon(
        "ibmq_london",
        cnot_error=0.018,
        measurement_error=0.035,
        sq_error=0.0006,
        t1_us=50.0,
        t2_us=55.0,
        cnot_duration_ns=520.0,
        cnot_duration_spread=1.6,
        idle_dephasing_rate=1.3e-4,
    ),
    "ibmq_casablanca": _falcon(
        "ibmq_casablanca",
        cnot_error=0.014,
        measurement_error=0.028,
        sq_error=0.0005,
        t1_us=75.0,
        t2_us=80.0,
        cnot_duration_ns=450.0,
        cnot_duration_spread=1.7,
        idle_dephasing_rate=8.0e-5,
    ),
    # ---- larger heavy-hex generations (synthetic, not in the paper) -------
    # Error profiles are derived from the Falcon machines of Table 3: the
    # Hummingbird keeps Toronto-class gates with slightly longer-lived qubits,
    # the Eagle improves coherence further (as the real devices did) while its
    # early-revision CNOTs stay Toronto-class.
    "ibm_brooklyn": _falcon(
        "ibm_brooklyn",
        cnot_error=0.0155,
        measurement_error=0.0320,
        sq_error=0.0004,
        t1_us=110.0,
        t2_us=120.0,
        cnot_duration_ns=460.0,
        cnot_duration_spread=1.9,
        idle_dephasing_rate=6.5e-5,
    ),
    "ibm_washington": _falcon(
        "ibm_washington",
        cnot_error=0.0150,
        measurement_error=0.0260,
        sq_error=0.0004,
        t1_us=120.0,
        t2_us=125.0,
        cnot_duration_ns=480.0,
        cnot_duration_spread=1.9,
        idle_dephasing_rate=6.0e-5,
    ),
}


_HEAVY_HEX_PREFIX = "heavy_hex:"
_HEAVY_HEX_MEMO: Dict[Tuple[int, str], DeviceSpec] = {}


def heavy_hex_device(distance: int, template: str = "ibmq_toronto") -> DeviceSpec:
    """A heavy-hex family member with a Falcon-derived error profile.

    ``distance`` follows :func:`repro.hardware.topologies.heavy_hex`; the
    error characteristics are copied from ``template`` (Toronto by default),
    so the family isolates the *topology/scale* axis of the scaling study.
    The spec is named ``heavy_hex:<distance>`` and is resolvable back through
    :func:`get_device`, which makes the whole family usable as a sweep device
    axis.
    """
    distance = int(distance)
    template = str(template)
    key = (distance, template)
    spec = _HEAVY_HEX_MEMO.get(key)
    if spec is None:
        num_qubits = topologies.heavy_hex_num_qubits(distance)
        # Non-default templates are encoded in the name so every spec
        # round-trips through get_device and distinct profiles never share
        # a device name.
        name = f"{_HEAVY_HEX_PREFIX}{distance}"
        if template != "ibmq_toronto":
            name = f"{name}@{template}"
        spec = synthetic_device(
            num_qubits,
            edges=topologies.heavy_hex(distance),
            name=name,
            template=template,
        )
        _HEAVY_HEX_MEMO[key] = spec
    return spec


def get_device(name: str) -> DeviceSpec:
    """Look up a device by name.

    Beyond the registry, names of the form ``heavy_hex:<distance>`` resolve
    to parametric :func:`heavy_hex_device` members (``heavy_hex:5`` is the
    209-qubit extrapolation), so sweep specs can put the whole family on
    their device axis without pre-registering every size.
    """
    if name in DEVICES:
        return DEVICES[name]
    if name.startswith(_HEAVY_HEX_PREFIX):
        suffix = name[len(_HEAVY_HEX_PREFIX):]
        template = "ibmq_toronto"
        if "@" in suffix:
            suffix, template = suffix.split("@", 1)
        try:
            distance = int(suffix)
        except ValueError:
            raise KeyError(
                f"malformed heavy-hex device '{name}'"
                f" (expected '{_HEAVY_HEX_PREFIX}<integer >= 2>[@template]')"
            ) from None
        if distance < 2:
            raise KeyError(
                f"heavy-hex device '{name}' is too small (family starts at"
                f" '{_HEAVY_HEX_PREFIX}2', the 27-qubit Falcon)"
            )
        return heavy_hex_device(distance, template=template)
    raise KeyError(
        f"unknown device '{name}'; known devices: {sorted(DEVICES)}"
        f" plus parametric '{_HEAVY_HEX_PREFIX}<d>'"
    )


def list_devices() -> List[str]:
    return sorted(DEVICES)


def synthetic_device(
    num_qubits: int,
    edges: List[Edge] | None = None,
    name: str = "synthetic",
    template: str = "ibmq_toronto",
) -> DeviceSpec:
    """Build a device with a custom topology and a real device's error profile.

    Used by the Figure 3(b) experiment to compare IBMQ-Toronto against a
    machine "with similar error rates but all-to-all connectivity".
    """
    base = get_device(template)
    if edges is None:
        edges = topologies.all_to_all(num_qubits)
    return DeviceSpec(
        name=name,
        num_qubits=num_qubits,
        edges=tuple(edges),
        cnot_error=base.cnot_error,
        measurement_error=base.measurement_error,
        sq_error=base.sq_error,
        t1_us=base.t1_us,
        t2_us=base.t2_us,
        sq_gate_ns=base.sq_gate_ns,
        cnot_duration_ns=base.cnot_duration_ns,
        cnot_duration_spread=base.cnot_duration_spread,
        measurement_ns=base.measurement_ns,
        idle_dephasing_rate=base.idle_dephasing_rate,
    )

"""Backend: a device specification plus one calibration snapshot.

The backend answers the questions the rest of the stack needs:

* what does each gate cost in time (feeding the Gate Sequence Table)?
* what error channels apply to gates, idle windows and readout?
* what does the coupling graph look like (feeding layout/routing)?
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate
from ..core.gst import GateSequenceTable
from ..noise.idling import IdleNoiseModel
from ..noise.model import GateNoiseModel
from . import topologies
from .calibration import Calibration, generate_calibration
from .devices import DeviceSpec, get_device

__all__ = ["Backend"]


class Backend:
    """A quantum device with a concrete calibration cycle."""

    def __init__(self, device: DeviceSpec, calibration: Optional[Calibration] = None) -> None:
        self._device = device
        self._distances = None
        self._distance_rows = None
        self._adjacency = None
        self._calibration = calibration or generate_calibration(device, cycle=0)
        if self._calibration.device.name != device.name:
            raise ValueError("calibration was generated for a different device")
        self._gate_noise = GateNoiseModel(self._calibration)
        self._idle_noise = IdleNoiseModel(self._calibration)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_name(cls, name: str, cycle: int = 0) -> "Backend":
        """Build a backend for a named IBMQ device and calibration cycle."""
        device = get_device(name)
        return cls(device, generate_calibration(device, cycle=cycle))

    def with_calibration_cycle(self, cycle: int) -> "Backend":
        """Same device, different calibration cycle (Figure 6 style drift)."""
        return Backend(self._device, generate_calibration(self._device, cycle=cycle))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._device.name

    @property
    def num_qubits(self) -> int:
        return self._device.num_qubits

    @property
    def device(self) -> DeviceSpec:
        return self._device

    @property
    def calibration(self) -> Calibration:
        return self._calibration

    @property
    def gate_noise(self) -> GateNoiseModel:
        return self._gate_noise

    @property
    def idle_noise(self) -> IdleNoiseModel:
        return self._idle_noise

    @property
    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(self._device.edges)

    def distance_matrix(self):
        """The device's all-pairs distance array (read-only, built once).

        Served from the process-wide memo of
        :func:`repro.hardware.topologies.distance_array` — every backend over
        the same topology (all calibration cycles included) shares one array
        and one graph traversal.  SABRE routing, the noise-adaptive layout
        and :meth:`DeviceSpec.distance` all read through this cache;
        unreachable pairs hold :data:`repro.hardware.topologies.UNREACHABLE`.
        """
        if self._distances is None:
            self._distances = topologies.distance_array(
                self._device.edges, self._device.num_qubits
            )
        return self._distances

    def distance_rows(self):
        """:meth:`distance_matrix` as nested Python lists.

        Plain-list indexing is several times faster than NumPy scalar
        indexing in the SABRE inner loop, which reads one distance per
        heuristic gate per SWAP candidate; built once per backend.
        """
        if self._distance_rows is None:
            self._distance_rows = self.distance_matrix().tolist()
        return self._distance_rows

    def adjacency_sets(self) -> Tuple[frozenset, ...]:
        """Physical neighbours of every qubit, as one frozenset per qubit.

        The transpiler's O(1) adjacency test; built once per backend.
        """
        if self._adjacency is None:
            neighbors = [set() for _ in range(self._device.num_qubits)]
            for a, b in self._device.edges:
                neighbors[a].add(b)
                neighbors[b].add(a)
            self._adjacency = tuple(frozenset(s) for s in neighbors)
        return self._adjacency

    def distance(self, a: int, b: int) -> int:
        """Coupling-graph distance between two physical qubits."""
        return self._device.distance(a, b)

    # ------------------------------------------------------------------
    # Timing model
    # ------------------------------------------------------------------

    def gate_duration(self, gate: Gate) -> float:
        """Latency of one gate in nanoseconds.

        Follows the IBMQ timing model the paper uses: ~35 ns single-qubit
        pulses, virtual (zero-duration) RZ, heterogeneous per-link CNOT
        latencies from the calibration, and a long readout.
        """
        if gate.duration is not None:
            return float(gate.duration)
        name = gate.name
        if name == "barrier":
            return 0.0
        if name in ("rz", "u1", "p", "z", "s", "sdg", "t", "tdg"):
            # Diagonal rotations are implemented in software on IBMQ backends.
            return 0.0
        if name == "measure":
            return float(self._device.measurement_ns)
        if name in ("cx", "cnot", "cz"):
            a, b = gate.qubits
            try:
                return float(self._calibration.cnot_duration(a, b))
            except KeyError:
                return float(self._device.cnot_duration_ns)
        if name == "swap":
            a, b = gate.qubits
            try:
                return 3.0 * float(self._calibration.cnot_duration(a, b))
            except KeyError:
                return 3.0 * float(self._device.cnot_duration_ns)
        if name in ("u2",):
            return float(self._device.sq_gate_ns)
        if name in ("u3", "u"):
            return 2.0 * float(self._device.sq_gate_ns)
        if name == "y":
            # Y decomposes into SX·RZ·SX on the IBM basis.
            return 2.0 * float(self._device.sq_gate_ns)
        if name == "reset":
            return float(self._device.measurement_ns)
        return float(self._device.sq_gate_ns)

    def schedule(self, circuit: QuantumCircuit, method: str = "alap") -> GateSequenceTable:
        """Build the Gate Sequence Table of a circuit on this backend."""
        return GateSequenceTable(circuit, self.gate_duration, method=method)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return (
            f"Backend({self.name}, {self.num_qubits} qubits,"
            f" cycle={self._calibration.cycle})"
        )

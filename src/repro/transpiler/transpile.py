"""Top-level transpilation pipeline: decompose -> layout -> route -> optimize.

Mirrors the methodology of Section 5.1 (Qiskit with noise-adaptive mapping,
SABRE routing and optimization level 3): the output is a
:class:`CompiledProgram` on physical device qubits, in the machine basis, with
the bookkeeping ADAPT needs (the logical-to-physical layout at measurement
time, the scheduled Gate Sequence Table and SWAP statistics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate
from ..core.gst import GateSequenceTable
from ..hardware.backend import Backend
from .decompose import decompose_to_basis
from .layout import Layout, noise_adaptive_layout, trivial_layout
from .optimization import optimize_circuit
from .routing import RoutedCircuit, sabre_route

__all__ = ["CompiledProgram", "transpile"]


@dataclass
class CompiledProgram:
    """A program compiled for a specific backend."""

    logical_circuit: QuantumCircuit
    physical_circuit: QuantumCircuit
    backend: Backend
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int
    _gst: Optional[GateSequenceTable] = field(default=None, repr=False)

    @property
    def output_qubits(self) -> Tuple[int, ...]:
        """Physical qubit holding each logical qubit at measurement time."""
        return self.final_layout.physical_qubits()

    @property
    def program_qubits(self) -> Tuple[int, ...]:
        """All physical qubits that carry program state at some point."""
        return tuple(sorted(self.physical_circuit.qubits_used()))

    @property
    def gst(self) -> GateSequenceTable:
        """The scheduled Gate Sequence Table (built lazily and cached)."""
        if self._gst is None:
            self._gst = self.backend.schedule(self.physical_circuit)
        return self._gst

    # Summary statistics used by the Table 4 harness ------------------------

    def gate_count(self) -> int:
        return self.physical_circuit.num_gates - self.physical_circuit.num_measurements

    def depth(self) -> int:
        return self.physical_circuit.depth()

    def average_idle_time_us(self) -> float:
        return self.gst.average_idle_time() / 1000.0

    def latency_us(self) -> float:
        return self.gst.total_duration / 1000.0


def _expand_routing_swaps(circuit: QuantumCircuit) -> QuantumCircuit:
    """Lower routing SWAPs to CNOT triples.

    The routed circuit is the already-lowered program plus inserted ``swap``
    gates, so this targeted expansion produces exactly what a second full
    ``decompose_to_basis`` pass used to — without re-walking every gate
    through the decomposition rules.
    """
    lowered: list = []
    for gate in circuit.gates:
        if gate.name == "swap":
            a, b = gate.qubits
            label = gate.label
            lowered.append(Gate("cx", (a, b), label=label))
            lowered.append(Gate("cx", (b, a), label=label))
            lowered.append(Gate("cx", (a, b), label=label))
        else:
            lowered.append(gate)
    return QuantumCircuit._trusted(circuit.num_qubits, circuit.name, lowered)


def transpile(
    circuit: QuantumCircuit,
    backend: Backend,
    layout: Optional[Layout] = None,
    optimize: bool = True,
    use_noise_adaptive_layout: bool = True,
) -> CompiledProgram:
    """Compile a logical circuit for a backend.

    Args:
        circuit: logical program (measurements included).
        backend: target device + calibration.
        layout: optional explicit initial layout; by default the
            noise-adaptive placement is used (or the trivial layout when
            ``use_noise_adaptive_layout`` is disabled).
        optimize: run redundant-gate elimination after lowering.
    """
    lowered = decompose_to_basis(circuit)
    if optimize:
        lowered = optimize_circuit(lowered)

    if layout is None:
        if use_noise_adaptive_layout:
            layout = noise_adaptive_layout(lowered, backend)
        else:
            layout = trivial_layout(circuit.num_qubits)

    routed: RoutedCircuit = sabre_route(lowered, backend, layout)
    physical = _expand_routing_swaps(routed.circuit)
    if optimize:
        physical = optimize_circuit(physical)
    physical.name = circuit.name

    return CompiledProgram(
        logical_circuit=circuit,
        physical_circuit=physical,
        backend=backend,
        initial_layout=routed.initial_layout,
        final_layout=routed.final_layout,
        num_swaps=routed.num_swaps,
    )

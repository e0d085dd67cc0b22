"""Noise-adaptive initial layout.

The paper compiles with Qiskit's "noise adaptive" mapping: program qubits are
placed on a connected region of physical qubits chosen for low CNOT and
readout error, with heavily-interacting program qubits placed on adjacent
physical qubits whenever possible.  This pass implements the same idea with a
deterministic greedy algorithm:

1. score every physical edge by its calibrated CNOT error;
2. grow a connected region of ``n`` physical qubits starting from the best
   edge, always adding the frontier qubit whose links into the region are the
   most reliable;
3. place program qubits into the region in decreasing order of interaction
   weight, preferring physical qubits adjacent to already-placed partners.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..circuits.circuit import QuantumCircuit
from ..hardware.backend import Backend

__all__ = ["Layout", "noise_adaptive_layout", "trivial_layout"]


@dataclass(frozen=True)
class Layout:
    """Mapping from program (logical) qubits to physical qubits."""

    logical_to_physical: Tuple[int, ...]

    @property
    def num_logical(self) -> int:
        return len(self.logical_to_physical)

    def physical(self, logical: int) -> int:
        return self.logical_to_physical[logical]

    def as_dict(self) -> Dict[int, int]:
        return {l: p for l, p in enumerate(self.logical_to_physical)}

    def physical_qubits(self) -> Tuple[int, ...]:
        return tuple(self.logical_to_physical)


def trivial_layout(num_logical: int) -> Layout:
    """Identity layout: logical qubit i on physical qubit i."""
    return Layout(tuple(range(num_logical)))


def interaction_graph(circuit: QuantumCircuit) -> Dict[int, Dict[int, int]]:
    """Two-qubit interaction counts of a program: ``{qubit: {partner: count}}``.

    Every program qubit is a key, and each qubit's partners appear in the
    order of their first interaction.
    """
    graph: Dict[int, Dict[int, int]] = {q: {} for q in range(circuit.num_qubits)}
    for gate in circuit:
        if gate.is_two_qubit:
            a, b = gate.qubits
            graph[a][b] = graph[a].get(b, 0) + 1
            graph[b][a] = graph[b].get(a, 0) + 1
    return graph


def noise_adaptive_layout(circuit: QuantumCircuit, backend: Backend) -> Layout:
    """Choose physical qubits for a program on a backend."""
    n_logical = circuit.num_qubits
    if n_logical > backend.num_qubits:
        raise ValueError(
            f"program needs {n_logical} qubits but {backend.name} has only"
            f" {backend.num_qubits}"
        )
    region = _select_region(backend, n_logical)
    return _place_program(circuit, backend, region)


def _edge_error(backend: Backend, a: int, b: int) -> float:
    try:
        return backend.calibration.cnot_error(a, b)
    except KeyError:
        return 1.0


def _readout_error(backend: Backend, qubit: int) -> float:
    cal = backend.calibration.qubit(qubit)
    return (cal.readout_p01 + cal.readout_p10) / 2.0


def _select_region(backend: Backend, size: int) -> List[int]:
    """Grow a connected low-error region of ``size`` physical qubits."""
    edges = list(backend.edges)
    if size == 1:
        best = min(range(backend.num_qubits), key=lambda q: _readout_error(backend, q))
        return [best]
    if not edges:
        return list(range(size))
    seed_edge = min(edges, key=lambda e: _edge_error(backend, *e))
    region = [seed_edge[0], seed_edge[1]]
    adjacency = backend.adjacency_sets()
    while len(region) < size:
        region_set = set(region)
        frontier = set()
        for q in region:
            frontier.update(adjacency[q] - region_set)
        if not frontier:
            # Disconnected device or exhausted component: add the best leftover.
            leftovers = [q for q in range(backend.num_qubits) if q not in region_set]
            frontier = set(leftovers[: max(1, len(leftovers))])
        def cost(candidate: int) -> float:
            link_errors = [
                _edge_error(backend, candidate, q)
                for q in region
                if q in adjacency[candidate]
            ]
            link_cost = min(link_errors) if link_errors else 0.5
            return link_cost + 0.1 * _readout_error(backend, candidate)
        region.append(min(frontier, key=cost))
    return region


def _place_program(circuit: QuantumCircuit, backend: Backend, region: List[int]) -> Layout:
    """Assign logical qubits to the selected physical region.

    Partner distances are O(1) lookups into the backend's memoized all-pairs
    array (shared with SABRE routing).  Distances are measured on the full
    coupling graph (routing may leave the region), with unreachable pairs
    penalized at a large finite cost.
    """
    program_graph = interaction_graph(circuit)
    adjacency = backend.adjacency_sets()
    distances = backend.distance_matrix()
    far = float(backend.num_qubits)
    order = sorted(range(circuit.num_qubits), key=lambda q: -sum(program_graph[q].values()))
    assignment: Dict[int, int] = {}
    used: set = set()
    for logical in order:
        placed_partners = [assignment[p] for p in program_graph[logical] if p in assignment]
        candidates = [p for p in region if p not in used]
        if not candidates:
            raise ValueError("region smaller than the program")
        def score(physical: int) -> Tuple[int, float]:
            # Placed partners always lie inside the region, so the full-graph
            # adjacency test equals the old region-subgraph edge test.
            neighbors = adjacency[physical]
            adjacent = sum(1 for partner in placed_partners if partner in neighbors)
            avg_dist = 0.0
            if placed_partners:
                lengths = [
                    float(d) if math.isfinite(d) else far
                    for d in (distances[physical, p] for p in placed_partners)
                ]
                avg_dist = sum(lengths) / len(lengths)
            return (-adjacent, avg_dist + 0.05 * _readout_error(backend, physical))
        best = min(candidates, key=score)
        assignment[logical] = best
        used.add(best)
    return Layout(tuple(assignment[l] for l in range(circuit.num_qubits)))

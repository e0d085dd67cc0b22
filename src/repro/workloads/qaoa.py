"""QAOA (Quantum Approximate Optimization Algorithm) MaxCut benchmarks.

QAOA circuits are the paper's representative variational workloads
(QAOA-5/8/10, and the 100-qubit SDC scalability check in Table 2).  Each
layer applies a ZZ cost unitary per graph edge followed by a transverse-field
mixer, so the CNOT structure is set by the problem graph: sparse ring graphs
give the shallow "A" instances, denser 3-regular graphs the deeper "B"
instances of Table 4.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit

__all__ = [
    "qaoa_maxcut",
    "path_graph",
    "ring_graph",
    "heavy_hex_subgraph",
    "qaoa_benchmark",
    "qaoa_on_graph",
    "QAOA_GRAPHS",
]

Edge = Tuple[int, int]


def ring_graph(num_nodes: int) -> List[Edge]:
    """Cycle graph edges (the sparse QAOA-xA instances)."""
    return [(i, (i + 1) % num_nodes) for i in range(num_nodes)]


def path_graph(num_nodes: int) -> List[Edge]:
    """Open-chain edges — the device-native graph of the parametric suite.

    A path embeds into any connected coupling map with near-zero SWAP
    overhead, so ``QAOA:<n>@path`` instances keep their CNOT structure
    device-native at every size.
    """
    return [(i, i + 1) for i in range(num_nodes - 1)]


def heavy_hex_subgraph(num_nodes: int) -> List[Edge]:
    """Induced heavy-hex lattice edges on nodes ``0..num_nodes-1``.

    The problem graph of ``QAOA:<n>@heavy_hex``: the smallest heavy-hex
    lattice with at least ``num_nodes`` qubits (see
    :func:`repro.hardware.topologies.heavy_hex`), restricted to the first
    ``num_nodes`` node ids.  On heavy-hex devices the cost layer is therefore
    (a subgraph of) the physical coupling map itself.
    """
    from ..hardware import topologies

    distance = 2
    while topologies.heavy_hex_num_qubits(distance) < num_nodes:
        distance += 1
    return [
        (a, b)
        for a, b in topologies.heavy_hex(distance)
        if a < num_nodes and b < num_nodes
    ]


#: Named problem graphs of the parametric ``QAOA:<n>@<graph>`` family.
QAOA_GRAPHS = {
    "path": path_graph,
    "ring": ring_graph,
    "heavy_hex": heavy_hex_subgraph,
}


def qaoa_on_graph(num_qubits: int, graph: str, layers: int = 1) -> QuantumCircuit:
    """The parametric QAOA instance ``QAOA:<n>@<graph>``."""
    try:
        builder = QAOA_GRAPHS[graph]
    except KeyError:
        raise ValueError(
            f"unknown QAOA graph '{graph}'; known graphs: {sorted(QAOA_GRAPHS)}"
        ) from None
    circuit = qaoa_maxcut(num_qubits, builder(num_qubits), layers=layers)
    circuit.name = f"qaoa-{num_qubits}@{graph}"
    return circuit


#: The 3-regular problem graphs of QAOA-8B and QAOA-10B, by node count.  Drawn
#: once with networkx 3.6.1 as ``random_regular_graph(3, n, seed=n)``, each
#: edge sorted and networkx's edge order kept: the cost layer follows this
#: order, so it is part of both circuits' fingerprints.
_REGULAR_GRAPHS: Dict[int, List[Edge]] = {
    8: [
        (0, 7), (0, 3), (0, 2), (1, 5), (1, 4), (1, 6),
        (2, 4), (2, 3), (3, 7), (4, 6), (5, 7), (5, 6),
    ],
    10: [
        (0, 7), (0, 9), (0, 5), (1, 8), (1, 6), (1, 3), (2, 4), (2, 7),
        (2, 3), (3, 5), (4, 9), (4, 6), (5, 8), (6, 8), (7, 9),
    ],
}


def qaoa_maxcut(
    num_qubits: int,
    edges: Sequence[Edge],
    layers: int = 1,
    gammas: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
    measure: bool = True,
    name: Optional[str] = None,
) -> QuantumCircuit:
    """Build a MaxCut QAOA circuit.

    Args:
        num_qubits: one qubit per graph node.
        edges: problem graph edges.
        layers: number of (cost, mixer) layers ``p``.
        gammas / betas: variational angles (default: a fixed, reproducible
            schedule — the evaluation cares about circuit structure, not about
            optimizing the cut).
    """
    gammas = list(gammas) if gammas is not None else [
        0.8 * (layer + 1) / layers for layer in range(layers)
    ]
    betas = list(betas) if betas is not None else [
        0.4 * (layers - layer) / layers for layer in range(layers)
    ]
    if len(gammas) != layers or len(betas) != layers:
        raise ValueError("need one gamma and one beta per layer")
    circuit = QuantumCircuit(num_qubits, name=name or f"qaoa-{num_qubits}")
    for qubit in range(num_qubits):
        circuit.h(qubit)
    for layer in range(layers):
        gamma, beta = gammas[layer], betas[layer]
        for a, b in edges:
            circuit.cx(a, b)
            circuit.rz(2.0 * gamma, b)
            circuit.cx(a, b)
        for qubit in range(num_qubits):
            circuit.rx(2.0 * beta, qubit)
    if measure:
        circuit.measure_all()
    return circuit


def qaoa_benchmark(num_qubits: int, variant: str = "A", layers: Optional[int] = None) -> QuantumCircuit:
    """Named QAOA benchmark instances matching the Table 4 suite."""
    variant = variant.upper()
    if variant == "A":
        edges = ring_graph(num_qubits)
        depth = layers if layers is not None else 1
    elif variant == "B":
        if num_qubits not in _REGULAR_GRAPHS:
            raise ValueError(
                f"'B' instances exist for {sorted(_REGULAR_GRAPHS)} qubits, not {num_qubits}"
            )
        edges = _REGULAR_GRAPHS[num_qubits]
        depth = layers if layers is not None else 2
    else:
        raise ValueError("variant must be 'A' or 'B'")
    circuit = qaoa_maxcut(num_qubits, edges, layers=depth)
    circuit.name = f"qaoa-{num_qubits}{variant.lower()}"
    return circuit

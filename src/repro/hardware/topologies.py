"""Coupling maps of the IBMQ devices used in the ADAPT evaluation.

The paper evaluates on IBMQ-Guadalupe (16 qubits), IBMQ-Paris and IBMQ-Toronto
(27 qubits, Falcon heavy-hex lattice), and characterises on IBMQ-Rome,
IBMQ-London and IBMQ-Casablanca.  The edge lists below are the public coupling
maps of those devices.  Two synthetic topologies (``line`` and
``all_to_all``) support the Figure 3(b) experiment, which compares idle time
with and without SWAP-induced serialization.

Beyond the paper's machines, :func:`heavy_hex` generates the whole IBM
heavy-hex device family parametrically: ``heavy_hex(2)`` reproduces the
27-qubit Falcon lattice (Paris/Toronto/Montreal) exactly, ``heavy_hex(3)``
the 65-qubit Hummingbird lattice (Brooklyn/Manhattan) and ``heavy_hex(4)``
the 127-qubit Eagle lattice (Washington), including IBM's qubit numbering.

Shortest-path distances are the transpiler's hottest lookup (SABRE routing
queries them per SWAP candidate per blocked gate), so they are computed once
per topology — one batch of single-source BFS sweeps into a read-only NumPy
array, memoized process-wide in :func:`distance_array` and shared by routing,
layout, :meth:`DeviceSpec.distance` and the calibration generator.
"""

from __future__ import annotations

import math

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

__all__ = [
    "COUPLING_MAPS",
    "DISTANCE_CACHE_STATS",
    "UNREACHABLE",
    "all_to_all",
    "line",
    "heavy_hex",
    "heavy_hex_num_qubits",
    "build_distance_array",
    "clear_distance_cache",
    "device_edges",
    "device_num_qubits",
    "distance_array",
    "distance_matrix",
    "neighbors",
    "qubit_link_combinations",
]

Edge = Tuple[int, int]

#: Sentinel distance of a disconnected qubit pair.  It compares greater than
#: every real distance, so heuristics that *minimize* distance never prefer an
#: unreachable placement; code that needs a hard failure should check
#: ``math.isfinite`` (``DeviceSpec.distance`` raises a descriptive error).
UNREACHABLE = math.inf

#: Heavy-hex coupling of the 27-qubit Falcon devices (Paris, Toronto, Montreal).
_FALCON_27: List[Edge] = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
]

#: Heavy-hex coupling of the 16-qubit Falcon device (Guadalupe).
_FALCON_16: List[Edge] = [
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14),
]

#: 5-qubit line (Rome).
_ROME_5: List[Edge] = [(0, 1), (1, 2), (2, 3), (3, 4)]

#: 5-qubit T shape (London).
_LONDON_5: List[Edge] = [(0, 1), (1, 2), (1, 3), (3, 4)]

#: 7-qubit H shape (Casablanca).
_CASABLANCA_7: List[Edge] = [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]

def line(num_qubits: int) -> List[Edge]:
    """Linear nearest-neighbour coupling."""
    return [(i, i + 1) for i in range(num_qubits - 1)]


def all_to_all(num_qubits: int) -> List[Edge]:
    """Fully connected coupling (no SWAPs ever needed)."""
    return [(i, j) for i in range(num_qubits) for j in range(i + 1, num_qubits)]


# ---------------------------------------------------------------------------
# The heavy-hex device family
# ---------------------------------------------------------------------------


def heavy_hex_num_qubits(distance: int) -> int:
    """Qubit count of :func:`heavy_hex` at the given family parameter.

    27 qubits for the Falcon generation (``distance=2``), then
    ``10 d^2 - 8 d - 1``: 65 at ``d=3`` (Hummingbird), 127 at ``d=4``
    (Eagle), 209 at ``d=5`` — the published lattice sizes.
    """
    if distance < 2:
        raise ValueError("heavy-hex family parameter must be >= 2")
    if distance == 2:
        return 27
    return 10 * distance * distance - 8 * distance - 1


def _heavy_hex_falcon() -> List[Edge]:
    """The 27-qubit Falcon lattice (IBM's column-major numbering).

    Two 10-qubit rows offset by one column, full three-qubit rungs every four
    columns (columns 1/5/9), and pendant rung stubs every four columns in
    between (columns 3/7) — the stubs are where the lattice would continue to
    the rows of a taller device, which is exactly how IBM truncated the
    Falcon generation.  Qubits are numbered column by column, top to bottom,
    reproducing the public ``ibmq_paris``/``ibmq_toronto`` map verbatim.
    """
    width = 11  # columns; the top row covers 0..9, the bottom row 1..10
    edges: List[Edge] = []
    counter = 0
    prev_top = prev_bottom = None
    for col in range(width):
        has_top = col <= width - 2
        has_bottom = col >= 1
        in_lattice = has_top and has_bottom
        has_rung = in_lattice and col % 4 == 1
        has_stubs = in_lattice and col % 4 == 3
        stub_up = top = rung = bottom = stub_down = None
        if has_stubs:
            stub_up = counter
            counter += 1
        if has_top:
            top = counter
            counter += 1
        if has_rung:
            rung = counter
            counter += 1
        if has_bottom:
            bottom = counter
            counter += 1
        if has_stubs:
            stub_down = counter
            counter += 1
        if top is not None and prev_top is not None:
            edges.append((prev_top, top))
        if bottom is not None and prev_bottom is not None:
            edges.append((prev_bottom, bottom))
        if stub_up is not None:
            edges.append((stub_up, top))
        if rung is not None:
            edges.append((top, rung))
            edges.append((rung, bottom))
        if stub_down is not None:
            edges.append((bottom, stub_down))
        if top is not None:
            prev_top = top
        if bottom is not None:
            prev_bottom = bottom
    return edges


def _heavy_hex_rows(distance: int) -> List[Edge]:
    """Hummingbird/Eagle-generation lattices (row-major IBM numbering).

    ``2d - 1`` horizontal rows of width ``4d - 1`` (the top row truncated at
    its right end, the bottom row at its left end), joined by ``d`` connector
    qubits per row pair at columns alternating between phase 0 and phase 2
    modulo 4.  For ``d=3`` and ``d=4`` this reproduces the public
    ``ibm_brooklyn`` (65q) and ``ibm_washington`` (127q) coupling maps,
    numbering included.
    """
    width = 4 * distance - 1
    rows = 2 * distance - 1
    edges: List[Edge] = []
    counter = 0
    pending: List[Tuple[int, int]] = []  # (connector id, column) above this row
    for row in range(rows):
        if row == 0:
            cols = list(range(width - 1))
        elif row == rows - 1:
            cols = list(range(1, width))
        else:
            cols = list(range(width))
        ids = {}
        for col in cols:
            ids[col] = counter
            counter += 1
        for col in cols[1:]:
            edges.append((ids[col - 1], ids[col]))
        for connector, col in pending:
            edges.append((connector, ids[col]))
        pending = []
        if row < rows - 1:
            phase = 0 if row % 2 == 0 else 2
            for col in range(phase, width, 4):
                connector = counter
                counter += 1
                edges.append((ids[col], connector))
                pending.append((connector, col))
    return edges


def heavy_hex(distance: int) -> List[Edge]:
    """Parametric IBM heavy-hex lattice (edge list).

    ``distance`` indexes the device generation: 2 is the 27-qubit Falcon
    (``heavy_hex(2)`` equals the ``ibmq_toronto`` map in this module, qubit
    numbering included), 3 the 65-qubit Hummingbird, 4 the 127-qubit Eagle,
    and larger values extrapolate the same row scheme.  Every lattice is
    connected with maximum degree 3; qubit counts follow
    :func:`heavy_hex_num_qubits`.
    """
    if distance < 2:
        raise ValueError("heavy-hex family parameter must be >= 2")
    if distance == 2:
        return _heavy_hex_falcon()
    return _heavy_hex_rows(distance)


COUPLING_MAPS: Dict[str, List[Edge]] = {
    "ibmq_guadalupe": list(_FALCON_16),
    "ibmq_paris": list(_FALCON_27),
    "ibmq_toronto": list(_FALCON_27),
    "ibmq_rome": list(_ROME_5),
    "ibmq_london": list(_LONDON_5),
    "ibmq_casablanca": list(_CASABLANCA_7),
    "ibm_brooklyn": heavy_hex(3),
    "ibm_washington": heavy_hex(4),
}

_NUM_QUBITS: Dict[str, int] = {
    "ibmq_guadalupe": 16,
    "ibmq_paris": 27,
    "ibmq_toronto": 27,
    "ibmq_rome": 5,
    "ibmq_london": 5,
    "ibmq_casablanca": 7,
    "ibm_brooklyn": heavy_hex_num_qubits(3),
    "ibm_washington": heavy_hex_num_qubits(4),
}


def device_edges(name: str) -> List[Edge]:
    """Edge list for a named device."""
    try:
        return list(COUPLING_MAPS[name])
    except KeyError as exc:
        raise KeyError(
            f"unknown device '{name}'; known devices: {sorted(COUPLING_MAPS)}"
        ) from exc


def device_num_qubits(name: str) -> int:
    return _NUM_QUBITS[name]


def neighbors(edges: Sequence[Edge], qubit: int) -> FrozenSet[int]:
    """Physical neighbours of a qubit under a coupling map."""
    adjacent = set()
    for a, b in edges:
        if a == qubit:
            adjacent.add(b)
        elif b == qubit:
            adjacent.add(a)
    return frozenset(adjacent)


#: Process-wide memo of distance arrays, keyed by topology content.  Every
#: ``Backend`` over the same device shares one array; routing, layout,
#: ``DeviceSpec.distance`` and calibration generation all read through it.
_DISTANCE_MEMO: Dict[Tuple[int, Tuple[Edge, ...]], np.ndarray] = {}

#: Cold/warm observability for the memo: ``builds`` counts actual all-pairs
#: BFS computations, ``hits`` counts memo reuse.  The transpiler regression
#: test asserts exactly one build per backend topology.
DISTANCE_CACHE_STATS: Dict[str, int] = {"builds": 0, "hits": 0}


def build_distance_array(edges: Sequence[Edge], num_qubits: int) -> np.ndarray:
    """All-pairs shortest-path distances, computed fresh (no memo).

    One single-source BFS sweep per qubit over plain adjacency lists into a
    ``(num_qubits, num_qubits)`` float array; disconnected pairs hold
    :data:`UNREACHABLE`.  This is the uncached building block —
    :func:`distance_array` is what production code calls.
    """
    adjacency: List[List[int]] = [[] for _ in range(num_qubits)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    out = np.full((num_qubits, num_qubits), UNREACHABLE, dtype=float)
    for source in range(num_qubits):
        row = out[source]
        row[source] = 0.0
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            nxt: List[int] = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if not math.isfinite(row[neighbor]):
                        row[neighbor] = depth
                        nxt.append(neighbor)
            frontier = nxt
    return out


def distance_array(edges: Sequence[Edge], num_qubits: int) -> np.ndarray:
    """The memoized, read-only distance array of one topology.

    The memo key is the topology *content* (qubit count + edge list), so
    distinct ``Backend``/``DeviceSpec`` instances over the same device share
    a single array and a single graph traversal per process.
    """
    key = (int(num_qubits), tuple((int(a), int(b)) for a, b in edges))
    cached = _DISTANCE_MEMO.get(key)
    if cached is None:
        DISTANCE_CACHE_STATS["builds"] += 1
        cached = build_distance_array(edges, num_qubits)
        cached.setflags(write=False)
        _DISTANCE_MEMO[key] = cached
    else:
        DISTANCE_CACHE_STATS["hits"] += 1
    return cached


def clear_distance_cache() -> None:
    """Drop the process-wide distance memo (tests and benchmarks only)."""
    _DISTANCE_MEMO.clear()
    DISTANCE_CACHE_STATS["builds"] = 0
    DISTANCE_CACHE_STATS["hits"] = 0


def distance_matrix(edges: Sequence[Edge], num_qubits: int) -> Dict[Tuple[int, int], object]:
    """All-pairs shortest-path distances on the coupling graph, as a dict.

    Unlike earlier revisions, *every* pair is present: unreachable pairs (on
    disconnected coupling maps) map to the explicit :data:`UNREACHABLE`
    sentinel instead of being silently dropped, so downstream lookups never
    raise a bare ``KeyError``.  Reachable distances stay ``int``.
    """
    array = distance_array(edges, num_qubits)
    return {
        (a, b): int(array[a, b]) if math.isfinite(array[a, b]) else UNREACHABLE
        for a in range(num_qubits)
        for b in range(num_qubits)
    }


def qubit_link_combinations(edges: Sequence[Edge], num_qubits: int) -> List[Tuple[int, Edge]]:
    """All (idle qubit, CNOT link) pairs where the qubit is not on the link.

    The paper characterises every such combination: 224 on IBMQ-Guadalupe and
    700 on IBMQ-Toronto (Section 3.2 / 3.3).
    """
    combos = []
    for qubit in range(num_qubits):
        for edge in edges:
            if qubit not in edge:
                combos.append((qubit, (edge[0], edge[1])))
    return combos

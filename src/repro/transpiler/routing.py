"""SABRE-style SWAP routing.

Devices do not offer all-to-all connectivity, so CNOTs between non-adjacent
physical qubits require SWAP insertion — the third cause of idling the paper
identifies (SWAPs serialize execution and create long idle periods,
Figure 3).  This pass implements the SABRE heuristic (Li, Ding, Xie —
ASPLOS'19, the routing policy the paper's methodology uses): it maintains a
front layer of unexecuted two-qubit gates and greedily applies the SWAP that
most reduces the summed coupling-graph distance of the front layer, with a
look-ahead term over the following gates.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate
from ..hardware.backend import Backend
from .layout import Layout

__all__ = ["RoutedCircuit", "sabre_route"]


@dataclass
class RoutedCircuit:
    """Result of routing: the physical circuit plus layout bookkeeping."""

    circuit: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int

    def output_qubits(self) -> Tuple[int, ...]:
        """Physical qubit holding each logical qubit at the end of the program."""
        return self.final_layout.physical_qubits()


class _Mapping:
    """Bidirectional logical <-> physical qubit mapping."""

    def __init__(self, layout: Layout, num_physical: int) -> None:
        self.l2p: Dict[int, int] = dict(layout.as_dict())
        self.p2l: Dict[int, int] = {p: l for l, p in self.l2p.items()}
        self.num_physical = num_physical

    def physical(self, logical: int) -> int:
        return self.l2p[logical]

    def swap_physical(self, a: int, b: int) -> None:
        la, lb = self.p2l.get(a), self.p2l.get(b)
        if la is not None:
            self.l2p[la] = b
        if lb is not None:
            self.l2p[lb] = a
        self.p2l.pop(a, None)
        self.p2l.pop(b, None)
        if la is not None:
            self.p2l[b] = la
        if lb is not None:
            self.p2l[a] = lb

    def as_layout(self, num_logical: int) -> Layout:
        return Layout(tuple(self.l2p[l] for l in range(num_logical)))


def sabre_route(
    circuit: QuantumCircuit,
    backend: Backend,
    layout: Layout,
    lookahead: int = 12,
    lookahead_weight: float = 0.5,
    max_iterations: Optional[int] = None,
) -> RoutedCircuit:
    """Route a logical circuit onto the backend's coupling graph.

    Args:
        circuit: logical circuit (any gate set; only two-qubit gates constrain
            routing).
        backend: target backend.
        layout: initial logical-to-physical placement.
        lookahead: number of upcoming two-qubit gates included in the
            extended heuristic set.
        lookahead_weight: weight of the extended set relative to the front
            layer.
        max_iterations: safety bound on SWAP insertions (defaults to a
            generous multiple of the gate count).
    """
    distances = backend.distance_matrix()
    dist_rows = backend.distance_rows()
    adjacency = backend.adjacency_sets()
    mapping = _Mapping(layout, backend.num_qubits)
    routed = QuantumCircuit(backend.num_qubits, name=circuit.name)

    # Terminal measurements are deferred and re-emitted at the final mapping:
    # SWAPs inserted after a logical qubit's last gate may still move its
    # state, so measuring at the *final* physical position is what preserves
    # program semantics (mid-circuit measurement is not supported).
    measured_logical: List[int] = []
    body_gates: List[Gate] = []
    for gate in circuit.gates:
        if gate.is_measurement:
            measured_logical.append(gate.qubits[0])
        else:
            body_gates.append(gate)

    gates = body_gates
    dependencies = _build_dependencies(gates)
    executed = [False] * len(gates)
    remaining_preds = [len(dependencies[i]) for i in range(len(gates))]
    successors: List[List[int]] = [[] for _ in range(len(gates))]
    for idx, preds in enumerate(dependencies):
        for p in preds:
            successors[p].append(idx)

    ready = [i for i, count in enumerate(remaining_preds) if count == 0]
    num_swaps = 0
    limit = max_iterations or (10 * len(gates) + 1000)
    iterations = 0

    l2p = mapping.l2p
    # Per-gate classification, resolved once instead of per scheduling round.
    two_qubit = [g.is_two_qubit for g in gates]
    gate_qubits = [g.qubits for g in gates]

    def is_executable(index: int) -> bool:
        if not two_qubit[index]:
            return True
        qa, qb = gate_qubits[index]
        return l2p[qb] in adjacency[l2p[qa]]

    def emit(index: int) -> None:
        gate = gates[index]
        physical = tuple(l2p[q] for q in gate.qubits)
        routed.append(gate.with_qubits(*physical))
        executed[index] = True
        for succ in successors[index]:
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                ready.append(succ)

    while ready:
        iterations += 1
        if iterations > limit:
            raise RuntimeError("routing failed to converge (SWAP limit exceeded)")
        progressed = False
        for index in sorted(ready):
            if is_executable(index):
                ready.remove(index)
                emit(index)
                progressed = True
        if progressed:
            continue

        # Every ready gate is a blocked two-qubit gate: pick a SWAP.
        front = [gates[i] for i in ready if two_qubit[i]]
        for gate in front:
            a, b = (l2p[q] for q in gate.qubits)
            if not math.isfinite(distances[a, b]):
                raise RuntimeError(
                    f"cannot route gate '{gate.name}' on logical qubits"
                    f" {tuple(gate.qubits)}: physical qubits {a} and {b} lie in"
                    f" different components of the {backend.name} coupling"
                    " graph (disconnected coupling map)"
                )
        extended = _extended_set(gates, two_qubit, ready, successors, lookahead)
        best_swap = _choose_swap(
            front, extended, mapping, adjacency, dist_rows, lookahead_weight
        )
        a, b = best_swap
        routed.append(Gate("swap", (a, b), label="routing"))
        mapping.swap_physical(a, b)
        num_swaps += 1

    for logical in measured_logical:
        routed.measure(mapping.physical(logical))

    return RoutedCircuit(
        circuit=routed,
        initial_layout=layout,
        final_layout=mapping.as_layout(circuit.num_qubits),
        num_swaps=num_swaps,
    )


def _build_dependencies(gates: Sequence[Gate]) -> List[List[int]]:
    last_on_qubit: Dict[int, int] = {}
    dependencies: List[List[int]] = []
    for index, gate in enumerate(gates):
        preds = []
        for q in gate.qubits:
            if q in last_on_qubit:
                preds.append(last_on_qubit[q])
            last_on_qubit[q] = index
        dependencies.append(sorted(set(preds)))
    return dependencies


def _extended_set(
    gates: Sequence[Gate],
    two_qubit: Sequence[bool],
    ready: Sequence[int],
    successors: Sequence[Sequence[int]],
    lookahead: int,
) -> List[Gate]:
    """Upcoming two-qubit gates reachable from the front layer."""
    extended: List[Gate] = []
    frontier = list(ready)
    seen = set(ready)
    while frontier and len(extended) < lookahead:
        nxt: List[int] = []
        for index in frontier:
            for succ in successors[index]:
                if succ in seen:
                    continue
                seen.add(succ)
                nxt.append(succ)
                if two_qubit[succ]:
                    extended.append(gates[succ])
                    if len(extended) >= lookahead:
                        break
            if len(extended) >= lookahead:
                break
        frontier = nxt
    return extended


def _choose_swap(
    front: Sequence[Gate],
    extended: Sequence[Gate],
    mapping: _Mapping,
    adjacency: Sequence[FrozenSet[int]],
    dist_rows: Sequence[Sequence[float]],
    lookahead_weight: float,
) -> Tuple[int, int]:
    l2p = mapping.l2p
    candidates = set()
    for gate in front:
        for logical in gate.qubits:
            physical = l2p[logical]
            for neighbor in adjacency[physical]:
                candidates.add(
                    (physical, neighbor) if physical < neighbor else (neighbor, physical)
                )
    if not candidates:
        raise RuntimeError("no SWAP candidates available; is the device connected?")

    # Each candidate is scored by a delta from one base cost: a SWAP moves
    # only its own two endpoints, so only the heuristic pairs touching them
    # are re-scored.  Every term is a hop count or ``far`` -- an integer-valued
    # float far below 2**53 -- so ``base - old + new`` equals the full re-sum
    # bit for bit and the ``sorted`` tie-break is unchanged.  Unreachable
    # look-ahead pairs get a large *finite* penalty so the front-layer term
    # still discriminates between SWAP candidates (truly unroutable front
    # gates fail fast in sabre_route).
    far = float(len(l2p) + 10)
    front_cost, front_touching = _index_pairs(front, l2p, dist_rows, far)
    ext_cost, ext_touching = _index_pairs(extended, l2p, dist_rows, far)
    front_norm = max(1, len(front))
    ext_norm = len(extended)

    def rescored(
        base: float, touching: Dict[int, List[Tuple[int, int, float]]], a: int, b: int
    ) -> float:
        total = base
        for pa, pb, old in touching.get(a, ()):
            pa = b if pa == a else a if pa == b else pa
            pb = b if pb == a else a if pb == b else pb
            value = dist_rows[pa][pb]
            total += (value if math.isfinite(value) else far) - old
        for pa, pb, old in touching.get(b, ()):
            if pa == a or pb == a:
                continue  # touches both endpoints: re-scored above
            pa = a if pa == b else pa
            pb = a if pb == b else pb
            value = dist_rows[pa][pb]
            total += (value if math.isfinite(value) else far) - old
        return total

    def cost_after(swap: Tuple[int, int]) -> float:
        a, b = swap
        cost = rescored(front_cost, front_touching, a, b) / front_norm
        if ext_norm:
            cost += lookahead_weight * (rescored(ext_cost, ext_touching, a, b) / ext_norm)
        return cost

    return min(sorted(candidates), key=cost_after)


def _index_pairs(
    gates: Sequence[Gate],
    l2p: Dict[int, int],
    dist_rows: Sequence[Sequence[float]],
    far: float,
) -> Tuple[float, Dict[int, List[Tuple[int, int, float]]]]:
    """Summed distance of the gates' physical pairs, and the pairs by qubit.

    Returns the total (unreachable pairs count ``far``) and, per physical
    qubit, the ``(a, b, distance)`` of every pair with that endpoint.
    """
    total = 0.0
    touching: Dict[int, List[Tuple[int, int, float]]] = {}
    for gate in gates:
        a, b = l2p[gate.qubits[0]], l2p[gate.qubits[1]]
        value = dist_rows[a][b]
        if not math.isfinite(value):
            value = far
        total += value
        pair = (a, b, value)
        touching.setdefault(a, []).append(pair)
        touching.setdefault(b, []).append(pair)
    return total, touching

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
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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

    l2p, p2l = mapping.l2p, mapping.p2l
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

    # The SWAP scores of the current ready list.  A SWAP round leaves the
    # ready list as it was unless a gate becomes executable, so the scorer is
    # kept across consecutive SWAP rounds and only rebuilt after an emit.
    scorer: Optional[_SwapScorer] = None
    # While the scorer is kept, the ready list holds only blocked two-qubit
    # gates, at most one on each logical qubit (``front_of``): after a SWAP
    # only the gates on its two qubits can have become executable.
    front_of: Dict[int, int] = {}
    swap: Optional[Tuple[int, int]] = None
    while ready:
        iterations += 1
        if iterations > limit:
            raise RuntimeError("routing failed to converge (SWAP limit exceeded)")
        if scorer is None or any(
            is_executable(front_of[p2l[p]]) for p in swap if p2l.get(p) in front_of
        ):
            progressed = False
            for index in sorted(ready):
                if is_executable(index):
                    ready.remove(index)
                    emit(index)
                    progressed = True
            if progressed:
                scorer = None
                continue

        # Every ready gate is a blocked two-qubit gate: pick a SWAP.
        if scorer is None:
            front = [gates[i] for i in ready if two_qubit[i]]
            # A SWAP moves qubits along an edge, so a front that is routable
            # when the scorer is built stays routable while it is kept.
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
            scorer = _SwapScorer(
                front, extended, l2p, adjacency, dist_rows, lookahead_weight
            )
            front_of = {q: i for i in ready for q in gate_qubits[i]}
        else:
            scorer.swap(*swap)  # the ready list held: follow the last SWAP
        swap = scorer.choose()
        routed.append(Gate("swap", swap, label="routing"))
        mapping.swap_physical(*swap)
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


class _PairIndex:
    """One heuristic gate list's physical pairs, indexed by physical qubit.

    ``total`` is the summed distance of the pairs (unreachable pairs count
    ``far``); ``touching[p]`` lists the ``[a, b, distance]`` record of every
    pair with endpoint ``p``, shared with the other endpoint's list and
    updated in place when a SWAP moves the pair.  :meth:`swap` follows a
    SWAP, :meth:`delta` scores one.
    """

    def __init__(
        self,
        gates: Sequence[Gate],
        l2p: Dict[int, int],
        dist_rows: Sequence[Sequence[float]],
        far: float,
    ) -> None:
        self.dist_rows = dist_rows
        self.far = far
        touching: Dict[int, List[List]] = {}
        total = 0.0
        for gate in gates:
            a, b = l2p[gate.qubits[0]], l2p[gate.qubits[1]]
            value = dist_rows[a][b]
            if not math.isfinite(value):
                value = far
            total += value
            pair = [a, b, value]
            touching.setdefault(a, []).append(pair)
            touching.setdefault(b, []).append(pair)
        self.touching = touching
        self.total = total

    def delta(self, a: int, b: int) -> float:
        """How much SWAP ``(a, b)`` changes ``total``."""
        rows, far = self.dist_rows, self.far
        total = 0.0
        for pa, pb, old in self.touching.get(a, ()):
            pa = b if pa == a else a if pa == b else pa
            pb = b if pb == a else a if pb == b else pb
            value = rows[pa][pb]
            total += (value if math.isfinite(value) else far) - old
        for pa, pb, old in self.touching.get(b, ()):
            if pa == a or pb == a:
                continue  # touches both endpoints: scored above
            pa = a if pa == b else pa
            pb = a if pb == b else pb
            value = rows[pa][pb]
            total += (value if math.isfinite(value) else far) - old
        return total

    def swap(self, a: int, b: int) -> Set[int]:
        """Apply SWAP ``(a, b)``; returns the endpoints of the moved pairs."""
        moved_a = self.touching.pop(a, [])
        moved_b = self.touching.pop(b, [])
        if moved_a:
            self.touching[b] = moved_a
        if moved_b:
            self.touching[a] = moved_b
        endpoints = set()
        # A pair on both qubits sits in both lists: move it once.
        for pair in {id(pair): pair for pair in moved_a + moved_b}.values():
            pa, pb, old = pair
            pa = b if pa == a else a if pa == b else pa
            pb = b if pb == a else a if pb == b else pb
            value = self.dist_rows[pa][pb]
            if not math.isfinite(value):
                value = self.far
            self.total += value - old
            pair[:] = (pa, pb, value)
            endpoints.update((pa, pb))
        return endpoints


class _SwapScorer:
    """SABRE's SWAP choice for one ready list, kept across its SWAP rounds.

    The candidates are the coupling edges at the front layer's physical
    qubits.  A candidate ``(a, b)`` costs the front layer's summed distance
    after the SWAP over ``max(1, len(front))``, plus ``lookahead_weight``
    times the look-ahead set's over ``len(extended)`` when that is non-empty.
    Each sum is kept as a base total plus a per-candidate delta: a SWAP moves
    only its own two endpoints, so only the pairs touching them are
    re-scored.  Following a SWAP (:meth:`swap`) updates only the moved
    pairs, the two totals, the candidates at ``a`` and ``b`` and the deltas
    of candidates with an endpoint on a moved pair.  Every term is a hop
    count or ``far`` -- an integer-valued float far below 2**53 -- so
    ``base + delta`` equals the full re-sum bit for bit, and ties go to the
    smallest candidate as under ``min(sorted(candidates), key=cost)``.  Unreachable
    look-ahead pairs get a large *finite* penalty so the front-layer term
    still discriminates between candidates (truly unroutable front gates
    fail fast in :func:`sabre_route`).
    """

    def __init__(
        self,
        front: Sequence[Gate],
        extended: Sequence[Gate],
        l2p: Dict[int, int],
        adjacency: Sequence[FrozenSet[int]],
        dist_rows: Sequence[Sequence[float]],
        lookahead_weight: float,
    ) -> None:
        far = float(len(l2p) + 10)
        self.adjacency = adjacency
        self.front = _PairIndex(front, l2p, dist_rows, far)
        self.extended = _PairIndex(extended, l2p, dist_rows, far)
        self.front_norm = max(1, len(front))
        self.ext_norm = len(extended)
        self.lookahead_weight = lookahead_weight
        #: ``(front delta, look-ahead delta)`` of every candidate, and the
        #: candidates sharing each such pair: a round scores a few distinct
        #: pairs instead of every candidate.
        self.deltas: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self.groups: Dict[Tuple[float, float], Set[Tuple[int, int]]] = {}
        self._rescore(list(self.front.touching))
        if not self.deltas:
            raise RuntimeError("no SWAP candidates available; is the device connected?")

    def _rescore(self, qubits) -> None:
        """Re-derive membership and deltas of every edge at ``qubits``."""
        touching = self.front.touching
        deltas, groups = self.deltas, self.groups
        edges = {(p, q) if p < q else (q, p) for p in qubits for q in self.adjacency[p]}
        for edge in edges:
            old = deltas.pop(edge, None)
            if old is not None:
                members = groups[old]
                members.discard(edge)
                if not members:
                    del groups[old]
            if edge[0] in touching or edge[1] in touching:
                key = (self.front.delta(*edge), self.extended.delta(*edge))
                deltas[edge] = key
                groups.setdefault(key, set()).add(edge)

    def choose(self) -> Tuple[int, int]:
        """The lowest-cost candidate; the smallest one among equal costs."""
        front_total, front_norm = self.front.total, self.front_norm
        ext_total, ext_norm = self.extended.total, self.ext_norm
        weight = self.lookahead_weight
        costs = {}
        for key in self.groups:
            front_delta, ext_delta = key
            cost = (front_total + front_delta) / front_norm
            if ext_norm:
                cost += weight * ((ext_total + ext_delta) / ext_norm)
            costs[key] = cost
        best = min(costs.values())
        return min(
            edge
            for key, cost in costs.items()
            if cost == best
            for edge in self.groups[key]
        )

    def swap(self, a: int, b: int) -> None:
        """Follow SWAP ``(a, b)`` of physical qubits ``a`` and ``b``."""
        moved = self.front.swap(a, b) | self.extended.swap(a, b)
        moved.update((a, b))
        self._rescore(moved)

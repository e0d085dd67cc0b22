"""Full-recompute references of the device-scale compile and evaluate steps.

Production keeps SABRE's SWAP scores across the rounds of one ready list,
each candidate a delta from one base cost, carries CNOT concurrency as
arrays from the schedule into the crosstalk fold, and builds the Clifford
engines' shared gate-noise masks and window variants in array passes.
These are the forms they replaced, kept as the references the differential
suite compares against bit for bit:

* :func:`sabre_route` rebuilds the front layer and the extended set
  (:func:`extended_set`) and re-scores every candidate in every SWAP round,
  and :func:`choose_swap` re-sums every front-layer and look-ahead pair for
  every candidate SWAP;
* :func:`concurrent_cnots` scans the schedule's CNOTs into a dict of running
  sums and returns sorted ``(link, overlap_ns)`` tuples;
* :func:`window_effect` folds those tuples into one idle window's noise,
  reading the calibration's two crosstalk arrays at one (qubit, link) pair
  per tuple;
* :func:`variant_mask_events` twirls one (window, variant)'s ops one at a
  time (``ResolvedOp.twirl``) and XORs each branch's packed end mask out of
  the suffix-map rows (:func:`end_masks`); :func:`assemble_window_events`
  lays such per-op events out as the batched builder's ``WindowEvents``,
  with each op's flip-free weight (:func:`flip_free_weight`) multiplied in
  op order;
* :func:`noise_mask_table` masks and weighs the shared gate-noise events
  the same way, one event at a time during the backward suffix walk
  (:func:`packed_mask_results`), and :func:`assemble_mask_table` lays them
  out as ``_build_mask_table``'s ``MaskTable``;
* :func:`gate_template` resolves gate noise once per scheduled gate.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import Gate, QuantumCircuit
from repro.hardware.program import (
    GATE_EVENT_PRIORITY,
    GATE_NOISE_PRIORITY,
    WINDOW_NOISE_PRIORITY,
)
from repro.noise.idling import IdleWindowEffect
from repro.simulators import symplectic
from repro.simulators.engines import EventGroup, MaskTable, WindowEvents
from repro.transpiler.routing import RoutedCircuit, _build_dependencies, _Mapping

Edge = Tuple[int, int]


def sabre_route(circuit, backend, layout, lookahead=12, lookahead_weight=0.5, max_iterations=None):
    """SABRE rebuilding its front, extended set and every candidate's score
    each SWAP round, with :func:`choose_swap` re-summing every pair."""
    distances = backend.distance_matrix()
    dist_rows = backend.distance_rows()
    adjacency = backend.adjacency_sets()
    mapping = _Mapping(layout, backend.num_qubits)
    routed = QuantumCircuit(backend.num_qubits, name=circuit.name)
    measured = [g.qubits[0] for g in circuit.gates if g.is_measurement]
    gates = [g for g in circuit.gates if not g.is_measurement]
    dependencies = _build_dependencies(gates)
    remaining = [len(preds) for preds in dependencies]
    successors: List[List[int]] = [[] for _ in gates]
    for index, preds in enumerate(dependencies):
        for pred in preds:
            successors[pred].append(index)
    ready = [i for i, count in enumerate(remaining) if count == 0]
    l2p = mapping.l2p
    num_swaps = 0
    iterations = 0
    limit = max_iterations or (10 * len(gates) + 1000)
    while ready:
        iterations += 1
        if iterations > limit:
            raise RuntimeError("routing failed to converge (SWAP limit exceeded)")
        progressed = False
        for index in sorted(ready):
            gate = gates[index]
            if gate.is_two_qubit and l2p[gate.qubits[1]] not in adjacency[l2p[gate.qubits[0]]]:
                continue
            ready.remove(index)
            routed.append(gate.with_qubits(*(l2p[q] for q in gate.qubits)))
            for succ in successors[index]:
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    ready.append(succ)
            progressed = True
        if progressed:
            continue
        front = [gates[i] for i in ready if gates[i].is_two_qubit]
        for gate in front:
            a, b = (l2p[q] for q in gate.qubits)
            if not math.isfinite(distances[a, b]):
                raise RuntimeError(
                    f"cannot route gate '{gate.name}' on logical qubits"
                    f" {tuple(gate.qubits)}: physical qubits {a} and {b} lie in"
                    f" different components of the {backend.name} coupling"
                    " graph (disconnected coupling map)"
                )
        extended = extended_set(gates, ready, successors, lookahead)
        a, b = choose_swap(front, extended, mapping, adjacency, dist_rows, lookahead_weight)
        routed.append(Gate("swap", (a, b), label="routing"))
        mapping.swap_physical(a, b)
        num_swaps += 1
    for logical in measured:
        routed.measure(mapping.physical(logical))
    return RoutedCircuit(
        circuit=routed,
        initial_layout=layout,
        final_layout=mapping.as_layout(circuit.num_qubits),
        num_swaps=num_swaps,
    )


def extended_set(gates, ready, successors, lookahead: int) -> list:
    """The first ``lookahead`` two-qubit gates of a breadth-first walk from
    the ready gates, in ready order."""
    extended = []
    frontier = list(ready)
    seen = set(ready)
    while frontier and len(extended) < lookahead:
        nxt = []
        for index in frontier:
            for succ in successors[index]:
                if succ in seen:
                    continue
                seen.add(succ)
                nxt.append(succ)
                if gates[succ].is_two_qubit:
                    extended.append(gates[succ])
                    if len(extended) >= lookahead:
                        break
            if len(extended) >= lookahead:
                break
        frontier = nxt
    return extended


def choose_swap(front, extended, mapping, adjacency, dist_rows, lookahead_weight):
    """The SWAP SABRE applies, with each candidate's cost summed in full."""
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

    far = float(len(l2p) + 10)
    front_pairs = [(l2p[g.qubits[0]], l2p[g.qubits[1]]) for g in front]
    ext_pairs = [(l2p[g.qubits[0]], l2p[g.qubits[1]]) for g in extended]
    front_norm = max(1, len(front_pairs))
    ext_norm = len(ext_pairs)

    def cost_after(swap: Tuple[int, int]) -> float:
        a, b = swap

        def pair_cost(pairs: Sequence[Tuple[int, int]]) -> float:
            total = 0.0
            for pa, pb in pairs:
                if pa == a:
                    pa = b
                elif pa == b:
                    pa = a
                if pb == a:
                    pb = b
                elif pb == b:
                    pb = a
                value = dist_rows[pa][pb]
                total += value if math.isfinite(value) else far
            return total

        cost = pair_cost(front_pairs) / front_norm
        if ext_norm:
            cost += lookahead_weight * (pair_cost(ext_pairs) / ext_norm)
        return cost

    return min(sorted(candidates), key=cost_after)


def concurrent_cnots(
    gst, start: float, end: float, exclude_qubit: Optional[int] = None
) -> List[Tuple[Edge, float]]:
    """CNOT links active during ``[start, end]`` and their summed overlap.

    Overlaps accumulate per link in schedule order from ``0.0``; the result
    is sorted by link.
    """
    cnots = [s for s in gst.scheduled_gates if s.is_cnot]
    starts = np.array([s.start for s in cnots], dtype=float)
    order = np.argsort(starts, kind="stable")
    starts = starts[order]
    ends = np.array([s.end for s in cnots], dtype=float)[order]
    qubit_a = np.array([s.qubits[0] for s in cnots], dtype=np.int64)[order]
    qubit_b = np.array([s.qubits[1] for s in cnots], dtype=np.int64)[order]
    links = [cnots[i].link for i in order]
    max_duration = float(max((s.duration for s in cnots), default=0.0))
    if not len(links):
        return []
    lo = int(np.searchsorted(starts, start - max_duration, side="left"))
    hi = int(np.searchsorted(starts, end, side="left"))
    if lo >= hi:
        return []
    overlaps = np.minimum(ends[lo:hi], end) - np.maximum(starts[lo:hi], start)
    hits = overlaps > 1e-9
    if exclude_qubit is not None:
        hits &= (qubit_a[lo:hi] != exclude_qubit) & (qubit_b[lo:hi] != exclude_qubit)
    active: Dict[Edge, float] = {}
    for i in np.nonzero(hits)[0]:
        link = links[lo + i]
        active[link] = active.get(link, 0.0) + float(overlaps[i])
    return sorted(active.items())


def window_effect(
    idle_noise,
    qubit: int,
    duration_ns: float,
    concurrent: Sequence[Tuple[Edge, float]] = (),
    dd_train=None,
) -> IdleWindowEffect:
    """``idle_noise``'s window noise, folding ``(link, overlap)`` tuples."""
    if duration_ns < 0:
        raise ValueError("window duration must be non-negative")
    calibration = idle_noise.calibration
    cal = calibration.qubit(qubit)
    duration = float(duration_ns)

    t1_decay = 1.0 - math.exp(-duration / cal.t1_ns)
    pure_rate = max(0.0, 1.0 / cal.t2_ns - 1.0 / (2.0 * cal.t1_ns))
    markovian = 1.0 - math.exp(-2.0 * duration * pure_rate)

    effective_time = duration
    coherent_phase = cal.background_zz_rate * duration
    for link, overlap in concurrent:
        column = calibration.crosstalk_links.index(tuple(sorted(link)))
        multiplier = float(calibration.dephasing_multipliers[qubit, column])
        effective_time += (multiplier - 1.0) * overlap
        coherent_phase += float(calibration.zz_shift_rates[qubit, column]) * overlap
    static_std = cal.static_dephasing_rate * effective_time

    suppression = 1.0
    pulse_count = 0
    pulse_depolarizing = 0.0
    coherent_rotation = 0.0
    if dd_train is not None and dd_train.num_pulses > 0:
        suppression = idle_noise.dd_suppression_factor(qubit, dd_train)
        pulse_count = dd_train.num_pulses
        pulse_depolarizing = 1.0 - (1.0 - cal.dd_pulse_error) ** pulse_count
        coherent_rotation = cal.dd_coherent_error * pulse_count

    return IdleWindowEffect(
        qubit=qubit,
        duration_ns=duration,
        t1_decay=t1_decay,
        markovian_dephasing=markovian,
        static_phase_std=static_std,
        coherent_phase=coherent_phase,
        dd_suppression=suppression,
        dd_pulse_count=pulse_count,
        dd_pulse_depolarizing=min(1.0, pulse_depolarizing),
        dd_coherent_rotation=coherent_rotation,
    )


def end_masks(twirl, positions, x_of_x, x_of_z, words: int) -> np.ndarray:
    """Packed end X-masks of one twirled op's branches: the XOR of the
    suffix-map rows its Pauli selects on each position."""
    _, xbits, zbits = twirl
    zero = np.uint64(0)
    final_x = np.zeros((xbits.shape[0], words), dtype=np.uint64)
    for column, position in enumerate(positions):
        final_x ^= np.where(xbits[:, column][:, None], x_of_x[position][None, :], zero)
        final_x ^= np.where(zbits[:, column][:, None], x_of_z[position][None, :], zero)
    return final_x


def flip_free_weight(probs: np.ndarray, masks: np.ndarray) -> float:
    """The weight of the branches whose packed mask row is all-zero words."""
    zero_rows = ~masks.any(axis=1)
    return float(probs[zero_rows].sum())


def packed_mask_results(program) -> List[Tuple]:
    """The backward suffix-composition walk, masked one event at a time.

    Template order: ``("window", widx, maps)`` for each window slot, with
    the ``{position: row}`` suffix rows of the window's qubit, and
    ``("noise", probs, positions, masks)`` for each shared gate-noise op,
    its twirl's branch probabilities and :func:`end_masks`.
    """
    n = program.num_active
    words = symplectic.num_words(max(1, n))
    x_of_x, x_of_z = symplectic.identity_suffix(n)

    def rows(positions):
        return tuple(
            {p: symplectic.ints_to_words([part[p]], words)[0] for p in positions}
            for part in (x_of_x, x_of_z)
        )

    results: List[Tuple] = []
    for kind, payload in reversed(program.template):
        if kind == "window":
            p = program.index_of[program.windows[payload].qubit]
            results.append(("window", payload, rows([p])))
        elif payload.gate is not None:
            symplectic.compose_suffix_packed(
                x_of_x, x_of_z, payload.gate.name, payload.positions, payload.gate.params
            )
        else:
            twirl = payload.twirl
            masks = end_masks(twirl, payload.positions, *rows(payload.positions), words)
            results.append(("noise", twirl[0], payload.positions, masks))
    return results[::-1]


def assemble_mask_table(program, results: Sequence[Tuple]) -> MaskTable:
    """Per-event results (as :func:`packed_mask_results` returns them) laid
    out as ``_build_mask_table``'s ``MaskTable``: each event's weight from
    :func:`flip_free_weight`, their product taken event by event."""
    words = symplectic.num_words(max(1, program.num_active))
    per_width: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
    width, row, flip_free = [], [], []
    slot_windows, events_before, suffix_maps = [], [], {}
    for item in results:
        if item[0] == "window":
            _, widx, maps = item
            slot_windows.append(widx)
            events_before.append(len(width))
            suffix_maps[widx] = maps
            continue
        _, probs, positions, masks = item
        k = len(positions)
        rows = per_width.setdefault(k, [])
        width.append(k)
        row.append(len(rows))
        rows.append((probs, masks))
        flip_free.append(flip_free_weight(probs, masks))
    groups = {}
    for k, rows in per_width.items():
        branches = 4 ** k
        probs = np.zeros((len(rows), branches), dtype=float)
        cum = np.full((len(rows), branches), 2.0, dtype=float)
        counts = np.zeros(len(rows), dtype=np.int64)
        masks = np.zeros((len(rows), branches, words), dtype=np.uint64)
        for r, (branch_probs, branch_masks) in enumerate(rows):
            count = len(branch_probs)
            probs[r, :count] = branch_probs
            cum[r, :count] = np.cumsum(branch_probs)
            counts[r] = count
            masks[r, :count] = branch_masks
        groups[k] = EventGroup(probs, cum, counts, masks)
    shared_flip_free = 1.0
    for weight in flip_free:
        shared_flip_free *= weight
    return MaskTable(
        groups=groups,
        width=np.array(width, dtype=np.int64),
        row=np.array(row, dtype=np.int64),
        flip_free=np.array(flip_free, dtype=float),
        shared_flip_free=shared_flip_free,
        slot_windows=np.array(slot_windows, dtype=np.int64),
        events_before=np.array(events_before, dtype=np.int64),
        suffix_maps=suffix_maps,
    )


def noise_mask_table(program) -> MaskTable:
    """The per-event mask table: :func:`packed_mask_results`, assembled."""
    return assemble_mask_table(program, packed_mask_results(program))


def variant_mask_events(program, suffix_maps, widx: int, variant) -> List[Tuple]:
    """``(probs, packed end X-masks)`` of one (window, variant)'s ops."""
    ops = program.window_ops(widx, variant)
    words = symplectic.num_words(max(1, program.num_active))
    x_of_x, x_of_z = suffix_maps[widx] if ops else (None, None)
    return [
        (op.twirl[0], end_masks(op.twirl, op.positions, x_of_x, x_of_z, words))
        for op in ops
    ]


def assemble_window_events(program, per_pair: Sequence[List[Tuple]]) -> WindowEvents:
    """Per-pair ``(probs, masks)`` event lists as one ``WindowEvents``."""
    words = symplectic.num_words(max(1, program.num_active))
    rows = [event for events in per_pair for event in events]
    E = len(rows)
    probs = np.zeros((E, 4), dtype=float)
    cum = np.full((E, 4), 2.0, dtype=float)
    counts = np.zeros(E, dtype=np.int64)
    masks = np.zeros((E, 4, words), dtype=np.uint64)
    for e, (branch_probs, branch_masks) in enumerate(rows):
        branches = len(branch_probs)
        probs[e, :branches] = branch_probs
        cum[e, :branches] = np.cumsum(branch_probs)
        counts[e] = branches
        masks[e, :branches] = branch_masks
    flip_free = []
    for events in per_pair:
        weight = 1.0
        for branch_probs, branch_masks in events:
            weight *= flip_free_weight(branch_probs, branch_masks)
        flip_free.append(weight)
    bounds = np.cumsum([0] + [len(events) for events in per_pair])
    return WindowEvents(bounds, probs, cum, counts, masks, np.array(flip_free, dtype=float))


def gate_template(program) -> List[Tuple]:
    """``program``'s event template with noise resolved per scheduled gate.

    Gates read ``("gate", name, positions, params)``, noise ops
    ``("noise", kind, positions, Kraus bytes)`` and window slots
    ``("window", index)``, ordered by the compiler's sort key.
    """
    entries = []
    order = 0
    for scheduled in program.gst.scheduled_gates:
        gate = scheduled.gate
        if gate.is_measurement or gate.is_barrier or gate.is_delay:
            continue
        positions = tuple(program.index_of[q] for q in gate.qubits)
        event = ("gate", gate.name, positions, gate.params)
        entries.append((scheduled.start, GATE_EVENT_PRIORITY, order, event))
        order += 1
        for op in program.backend.gate_noise.gate_noise(gate):
            kraus = tuple(np.asarray(k, dtype=complex).tobytes() for k in op.payload)
            positions = tuple(program.index_of[q] for q in op.qubits)
            event = ("noise", op.kind, positions, kraus)
            entries.append((scheduled.start, GATE_NOISE_PRIORITY, order, event))
            order += 1
    for widx, window in enumerate(program.windows):
        entries.append((window.end, WINDOW_NOISE_PRIORITY, order, ("window", widx)))
        order += 1
    entries.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in entries]

"""Full-recompute references of the device-scale compile and evaluate steps.

Production scores SABRE's SWAP candidates by a delta from one base cost,
carries CNOT concurrency as arrays from the schedule into the crosstalk fold,
and builds the Clifford engines' window variants in one array pass.  These
are the forms they replaced, kept as the references the differential suite
compares against bit for bit:

* :func:`choose_swap` re-sums every front-layer and look-ahead pair for
  every candidate SWAP;
* :func:`concurrent_cnots` scans the schedule's CNOTs into a dict of running
  sums and returns sorted ``(link, overlap_ns)`` tuples;
* :func:`window_effect` folds those tuples into one idle window's noise,
  with one :meth:`~repro.hardware.calibration.Calibration.crosstalk_on`
  lookup per tuple;
* :func:`variant_mask_events` twirls one (window, variant)'s ops one at a
  time (``ResolvedOp.twirl``) and XORs each branch's packed end mask out of
  the suffix-map rows (:func:`end_masks`); :func:`assemble_window_events`
  lays such per-op events out as the batched builder's ``WindowEvents``,
  with each op's flip-free weight (:func:`flip_free_weight`) multiplied in
  op order;
* :func:`gate_template` resolves gate noise once per scheduled gate.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.program import (
    GATE_EVENT_PRIORITY,
    GATE_NOISE_PRIORITY,
    WINDOW_NOISE_PRIORITY,
)
from repro.noise.idling import IdleWindowEffect
from repro.simulators import symplectic
from repro.simulators.engines import WindowEvents

Edge = Tuple[int, int]


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
        entry = calibration.crosstalk_on(qubit, link)
        effective_time += (entry.dephasing_multiplier - 1.0) * overlap
        coherent_phase += entry.zz_shift_rate * overlap
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

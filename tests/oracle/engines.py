"""Boolean-row references for the Clifford engines' masks and frame loop.

* :func:`conjugate_rows` — the phase-free gate table, one column update of a
  boolean row block per gate;
* :func:`mask_table` — the forward mask-table build: seed each event's
  rows when its template slot is reached and push every seeded row through
  each later gate (``2n`` basis rows per idle window), then lay the events
  out one at a time (:func:`oracle.compile.assemble_mask_table`);
* :func:`template_sequence` — a mask table's events and window slots back
  in template order;
* :func:`variant_mask_events` — a window variant's masks from the full
  boolean suffix maps;
* :func:`window_variant_events` — the batched window builder's
  :class:`~repro.simulators.engines.WindowEvents`, assembled one op at a
  time from :func:`variant_mask_events`;
* :func:`frame_run` — :meth:`StabilizerFrameEngine.run` as one loop per
  event and trajectory over boolean frames.

Masks and suffix maps cross into production packed by
:func:`repro.simulators.symplectic.pack_rows`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.simulators import engines, symplectic
from repro.simulators.engines import SparseDistribution

from .compile import assemble_mask_table, assemble_window_events


def conjugate_rows(xparts, zparts, name: str, qubits, params=()) -> None:
    """Phase-free conjugation of a block of boolean Pauli rows by one gate."""
    if name in ("id", "i", "x", "y", "z"):
        return
    if name == "h":
        a = qubits[0]
        xa = xparts[:, a].copy()
        xparts[:, a] = zparts[:, a]
        zparts[:, a] = xa
    elif name in ("s", "sdg"):
        a = qubits[0]
        zparts[:, a] ^= xparts[:, a]
    elif name in ("sx", "sxdg"):
        a = qubits[0]
        xparts[:, a] ^= zparts[:, a]
    elif name in ("cx", "cnot"):
        control, target = qubits
        xparts[:, target] ^= xparts[:, control]
        zparts[:, control] ^= zparts[:, target]
    elif name == "cz":
        a, b = qubits
        zparts[:, b] ^= xparts[:, a]
        zparts[:, a] ^= xparts[:, b]
    elif name == "swap":
        a, b = qubits
        for parts in (xparts, zparts):
            column = parts[:, a].copy()
            parts[:, a] = parts[:, b]
            parts[:, b] = column
    elif name in ("rz", "u1", "p"):
        quarter_turns = int(round(params[0] / (math.pi / 2))) % 4
        if quarter_turns in (1, 3):
            a = qubits[0]
            zparts[:, a] ^= xparts[:, a]
    else:
        raise ValueError(f"gate '{name}' is not Clifford-propagatable")


def mask_table(program):
    """Forward row-propagation build of the mask table, packed at the end."""
    n = program.num_active
    events = [
        (tidx, payload)
        for tidx, (kind, payload) in enumerate(program.template)
        if kind == "window" or payload.gate is None
    ]
    identity = np.eye(n, dtype=bool)
    basis_x = np.vstack([identity, np.zeros((n, n), dtype=bool)])  # X_q then Z_q
    basis_z = np.vstack([np.zeros((n, n), dtype=bool), identity])

    total_rows = sum(
        2 * n if isinstance(payload, int) else payload.twirl[1].shape[0]
        for _, payload in events
    )
    xparts = np.zeros((total_rows, n), dtype=bool)
    zparts = np.zeros((total_rows, n), dtype=bool)
    spans: List[Tuple[object, int, int]] = []

    cursor = 0
    event_iter = iter(events)
    pending = next(event_iter, None)
    for tidx, (kind, payload) in enumerate(program.template):
        while pending is not None and pending[0] == tidx:
            _, event = pending
            if isinstance(event, int):  # window slot: seed the 2n basis rows
                xparts[cursor : cursor + 2 * n] = basis_x
                zparts[cursor : cursor + 2 * n] = basis_z
                spans.append((event, cursor, cursor + 2 * n))
                cursor += 2 * n
            else:
                _, xbits, zbits = event.twirl
                rows = xbits.shape[0]
                for column, position in enumerate(event.positions):
                    xparts[cursor : cursor + rows, position] = xbits[:, column]
                    zparts[cursor : cursor + rows, position] = zbits[:, column]
                spans.append((event, cursor, cursor + rows))
                cursor += rows
            pending = next(event_iter, None)
        if kind == "op" and payload.gate is not None:
            gate = payload.gate
            conjugate_rows(
                xparts[:cursor], zparts[:cursor], gate.name, payload.positions, gate.params
            )

    results: List[Tuple] = []
    for event, start, stop in spans:
        if isinstance(event, int):
            maps = (
                symplectic.pack_rows(xparts[start : start + n], n),  # images of X_q
                symplectic.pack_rows(xparts[start + n : stop], n),   # images of Z_q
            )
            results.append(("window", event, maps))
        else:
            masks = symplectic.pack_rows(xparts[start:stop], n)
            results.append(("noise", event.twirl[0], event.positions, masks))
    return assemble_mask_table(program, results)


def template_sequence(table):
    """The table's shared events and window slots in template order:
    ``("noise", probs, masks)`` and ``("window", widx)``."""
    slots = list(zip(table.events_before.tolist(), table.slot_windows.tolist()))
    slot = 0
    for event in range(len(table.width) + 1):
        while slot < len(slots) and slots[slot][0] == event:
            yield ("window", slots[slot][1])
            slot += 1
        if event < len(table.width):
            group = table.groups[int(table.width[event])]
            row = int(table.row[event])
            count = group.counts[row]
            yield ("noise", group.probs[row, :count], group.masks[row, :count])


def variant_mask_events(program, suffix_maps, widx: int, variant: object):
    """``(probs, packed end X-masks)`` of one (window, variant)'s ops."""
    ops = program.window_ops(widx, variant)
    if not ops:
        return []
    n = program.num_active
    x_of_x, x_of_z = (symplectic.unpack_rows(rows, n) for rows in suffix_maps[widx])
    events: List[Tuple[np.ndarray, np.ndarray]] = []
    for op in ops:
        probs, xbits, zbits = op.twirl
        final_x = np.zeros((xbits.shape[0], n), dtype=bool)
        for column, position in enumerate(op.positions):
            final_x ^= xbits[:, column][:, None] & x_of_x[position][None, :]
            final_x ^= zbits[:, column][:, None] & x_of_z[position][None, :]
        events.append((probs, symplectic.pack_rows(final_x, n)))
    return events


def window_variant_events(program, suffix_maps, pairs):
    """:func:`variant_mask_events` of every pair, as one ``WindowEvents``."""
    return assemble_window_events(
        program, [variant_mask_events(program, suffix_maps, widx, v) for widx, v in pairs]
    )


def _apply_events(events, streams, flips: np.ndarray, n: int) -> None:
    """XOR one drawn branch mask per event and trajectory into ``flips``."""
    T = len(streams)
    for probs, masks in events:
        if not masks.any():
            continue
        cumulative = np.cumsum(probs)
        draws = np.fromiter((stream.random() for stream in streams), dtype=float, count=T)
        chosen = np.minimum(
            np.searchsorted(cumulative, draws, side="right"), len(cumulative) - 1
        )
        np.logical_xor(flips, symplectic.unpack_rows(masks, n)[chosen], out=flips)


def frame_run(self, program, jobs, trajectories):
    """Frame sampling with one ``stream.random()`` per trajectory per event.

    Per stream the draws come in the engine's order: one per applied event
    (pure-Z events draw nothing) in template order, then the free ideal
    bits, then one per noisy output column.
    """
    n = program.num_active
    table = engines._noise_mask_table(program)
    base, basis = program.ideal_support()
    readout = self._readout_rates(program)
    window_cache: Dict[Tuple[int, object], Tuple[list, float]] = {}
    results = []
    for job in jobs:
        streams = job.streams
        T = len(streams)
        flips = np.zeros((T, n), dtype=bool)
        flip_free = float(table.shared_flip_free)
        for entry in template_sequence(table):
            if entry[0] == "noise":
                _apply_events([(entry[1], entry[2])], streams, flips, n)
                continue
            widx = entry[1]
            variant = job.variants[widx]
            key = (widx, variant)
            if key not in window_cache:
                built = engines._window_variant_events(program, table.suffix_maps, [key])
                events = [
                    (built.probs[e, : built.counts[e]], built.masks[e, : built.counts[e]])
                    for e in range(built.bounds[0], built.bounds[1])
                ]
                weight = 1.0
                for probs, masks in events:
                    weight *= float(probs[~masks.any(axis=1)].sum())
                window_cache[key] = (events, weight)
            events, weight = window_cache[key]
            flip_free *= weight
            _apply_events(events, streams, flips, n)

        if basis.shape[0]:
            free_bits = np.empty((T, basis.shape[0]), dtype=np.uint8)
            for t, stream in enumerate(streams):
                free_bits[t] = stream.integers(0, 2, size=basis.shape[0])
            ideal_bits = ((free_bits @ basis.astype(np.uint8)) % 2).astype(bool)
            outcomes = base[None, :] ^ ideal_bits ^ flips
        else:
            outcomes = base[None, :] ^ flips

        positions = job.outputs if job.outputs is not None else tuple(range(n))
        out_bits = outcomes[:, list(positions)]
        for column, position in enumerate(positions):
            p01, p10 = readout[position]
            if p01 <= 0.0 and p10 <= 0.0:
                continue
            draws = np.fromiter(
                (stream.random() for stream in streams), dtype=float, count=T
            )
            flip = np.where(out_bits[:, column], draws < p10, draws < p01)
            out_bits[:, column] ^= flip

        survival = self._readout_survival(base, basis, positions, readout)
        weight = 1.0 / T
        probabilities: Dict[str, float] = {}
        for row in out_bits:
            bits = "".join("1" if bit else "0" for bit in row)
            probabilities[bits] = probabilities.get(bits, 0.0) + weight
        results.append(
            SparseDistribution(
                probabilities=probabilities,
                num_bits=len(positions),
                readout_applied=True,
                metadata=(
                    {}
                    if survival is None
                    else {"flip_free_probability": flip_free * survival}
                ),
            )
        )
    return results

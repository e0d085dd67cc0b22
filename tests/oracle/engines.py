"""Boolean-row references for the Clifford engines' masks and frame loop.

* :func:`conjugate_rows` — the phase-free gate table, one column update of a
  boolean row block per gate;
* :func:`mask_results` — the forward mask-table build: seed each event's
  rows when its template slot is reached and push every seeded row through
  each later gate (``2n`` basis rows per idle window);
* :func:`variant_mask_events` — a window variant's masks from the full
  boolean suffix maps;
* :func:`frame_run` — :meth:`StabilizerFrameEngine.run` as one loop per
  event and trajectory over boolean frames.

Masks and suffix maps cross into production packed by
:func:`repro.simulators.symplectic.pack_rows`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simulators import engines, symplectic
from repro.simulators.engines import SparseDistribution


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


def mask_results(program, events, n: int) -> List[Tuple]:
    """Forward row-propagation build of the mask table, packed at the end."""
    identity = np.eye(n, dtype=bool)
    basis_x = np.vstack([identity, np.zeros((n, n), dtype=bool)])  # X_q then Z_q
    basis_z = np.vstack([np.zeros((n, n), dtype=bool), identity])

    total_rows = sum(
        2 * n if twirl is None else twirl[1].shape[0] for _, _, twirl, _ in events
    )
    xparts = np.zeros((total_rows, n), dtype=bool)
    zparts = np.zeros((total_rows, n), dtype=bool)
    spans: List[Tuple[object, int, int, Optional[np.ndarray]]] = []

    cursor = 0
    event_iter = iter(events)
    pending = next(event_iter, None)
    for tidx, (kind, payload) in enumerate(program.template):
        while pending is not None and pending[0] == tidx:
            _, tag, twirl, positions = pending
            if twirl is None:  # window slot: seed the 2n basis rows
                xparts[cursor : cursor + 2 * n] = basis_x
                zparts[cursor : cursor + 2 * n] = basis_z
                spans.append((tag, cursor, cursor + 2 * n, None))
                cursor += 2 * n
            else:
                probs, xbits, zbits = twirl
                rows = xbits.shape[0]
                for column, position in enumerate(positions):
                    xparts[cursor : cursor + rows, position] = xbits[:, column]
                    zparts[cursor : cursor + rows, position] = zbits[:, column]
                spans.append((tag, cursor, cursor + rows, probs))
                cursor += rows
            pending = next(event_iter, None)
        if kind == "op" and payload.gate is not None:
            gate = payload.gate
            conjugate_rows(
                xparts[:cursor], zparts[:cursor], gate.name, payload.positions, gate.params
            )

    results: List[Tuple] = []
    for tag, start, stop, probs in spans:
        if probs is None:
            maps = (
                symplectic.pack_rows(xparts[start : start + n], n),  # images of X_q
                symplectic.pack_rows(xparts[start + n : stop], n),   # images of Z_q
            )
            results.append(("window", tag[1], maps))
        else:
            results.append(("noise", probs, symplectic.pack_rows(xparts[start:stop], n)))
    return results


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
    base, basis = engines._ideal_support(program)
    readout = self._readout_rates(program)
    window_cache: Dict[Tuple[int, object], Tuple[list, float]] = {}
    results = []
    for job in jobs:
        streams = job.streams
        T = len(streams)
        flips = np.zeros((T, n), dtype=bool)
        flip_free = float(table["shared_flip_free"])
        for entry in table["sequence"]:
            if entry[0] == "noise":
                _apply_events([(entry[1], entry[2])], streams, flips, n)
                continue
            widx = entry[1]
            variant = job.variants[widx]
            if variant == "skip":
                continue
            key = (widx, variant)
            if key not in window_cache:
                events = engines._variant_mask_events(
                    program, table["suffix_maps"], widx, variant
                )
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

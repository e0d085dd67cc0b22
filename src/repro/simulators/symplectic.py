"""Bit-packed symplectic kernels shared by the stabilizer engines.

Every symplectic object in the Clifford stack — tableau rows, propagated
Pauli masks, sampled error frames — is a vector of (x|z) bits over ``n``
qubits.  This module packs those bit-vectors into ``uint64`` words
(``ceil(n / 64)`` words per half-row, qubit ``q`` at bit ``q % 64`` of word
``q // 64``) and provides the whole-array kernels the engines share:

* :func:`pack_rows` / :func:`unpack_rows` — the boundary converters (used at
  measurement/output edges and by the differential tests; the engines never
  unpack mid-computation);
* :func:`compose_suffix_packed` — the phase-free gate table: prepends one
  Clifford gate to a suffix conjugation map whose rows are packed into
  Python integers (:func:`identity_suffix` starts one), so walking a gate
  list backward end-propagates any Pauli (the noise-mask table and the
  mirror target both read their X-masks out of such a map);
* :func:`ints_to_words` / :func:`words_to_ints` — integer-packed rows to
  and from word rows, for the walks and passes that run one gate at a time
  on integers (the suffix maps, the tableau's qubit-major gate pass);
* :func:`phase_g_sum` — the CHP phase accumulator reduced to popcount
  arithmetic: the per-qubit exponent ``g`` of Aaronson–Gottesman is ``+1``
  exactly on the qubit patterns ``(Z,X), (X,Y), (Y,Z)`` and ``-1`` on
  ``(Z,Y), (X,Z), (Y,X)``, so the column sum is the popcount of one OR-mask
  minus the popcount of the other — six AND-words per 64 qubits instead of
  six boolean masks per qubit;
* :func:`rowsum_rows` — all rowsums of one measurement collapse applied to
  every affected row at once;
* :func:`product_phase` — the sign of an ordered product of commuting packed
  Pauli rows (the deterministic-measurement reduction), vectorized through a
  prefix-XOR: every prefix product of stabilizer-group elements carries a
  real ``±1`` sign, so the mod-4 phase contributions can be summed in one
  shot instead of row-by-row;
* :func:`popcount64` / :func:`xor_gather_reduce` — the two numpy loops
  under the rest: per-word popcount, and the frame engine's XOR-gather over
  stacked event masks.

This is the only implementation of the stack.  A boolean-row reference of it
lives in the test suite (``tests/oracle``), where the differential tests
require bit-identical results.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "WORD_BITS",
    "num_words",
    "pack_rows",
    "unpack_rows",
    "bit_column",
    "compose_suffix_packed",
    "identity_suffix",
    "ints_to_words",
    "words_to_ints",
    "phase_g_sum",
    "rowsum_rows",
    "product_phase",
    "popcount64",
    "xor_gather_reduce",
]

#: Bits per packed word.
WORD_BITS = 64

_ONE = np.uint64(1)
_BYTE_WEIGHTS = (_ONE << (np.uint64(8) * np.arange(8, dtype=np.uint64))).astype(
    np.uint64
)


def num_words(num_qubits: int) -> int:
    """Packed words per ``num_qubits``-bit half-row (``ceil(n / 64)``)."""
    return (int(num_qubits) + WORD_BITS - 1) // WORD_BITS


# ---------------------------------------------------------------------------
# Boundary converters
# ---------------------------------------------------------------------------


def pack_rows(bits: np.ndarray, num_qubits: int | None = None) -> np.ndarray:
    """Pack boolean rows ``(..., n)`` into ``(..., ceil(n/64))`` uint64 words.

    Qubit ``q`` lands at bit ``q % 64`` of word ``q // 64`` (little-endian
    within the word); pad bits beyond ``n`` are zero.  Endianness-independent
    by construction (bytes are combined arithmetically, never reinterpreted).
    """
    bits = np.asarray(bits, dtype=bool)
    n = bits.shape[-1] if num_qubits is None else int(num_qubits)
    W = num_words(max(n, 1))
    padded = np.zeros(bits.shape[:-1] + (W * WORD_BITS,), dtype=np.uint8)
    padded[..., :n] = bits[..., :n]
    grouped = np.packbits(padded, axis=-1, bitorder="little")
    grouped = grouped.reshape(bits.shape[:-1] + (W, 8)).astype(np.uint64)
    return (grouped * _BYTE_WEIGHTS).sum(axis=-1, dtype=np.uint64)


def unpack_rows(words: np.ndarray, num_qubits: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: ``(..., W)`` words to ``(..., n)`` bools."""
    words = np.asarray(words, dtype=np.uint64)
    shifts = (np.uint64(8) * np.arange(8, dtype=np.uint64))
    as_bytes = ((words[..., None] >> shifts) & np.uint64(0xFF)).astype(np.uint8)
    flat = as_bytes.reshape(words.shape[:-1] + (words.shape[-1] * 8,))
    bits = np.unpackbits(flat, axis=-1, bitorder="little")
    return bits[..., : int(num_qubits)].astype(bool)


def bit_column(words: np.ndarray, qubit: int) -> np.ndarray:
    """Bit ``qubit`` of every packed row, as a boolean column."""
    w, s = divmod(int(qubit), WORD_BITS)
    return (words[..., w] & (_ONE << np.uint64(s))) != 0


# ---------------------------------------------------------------------------
# Word kernels
# ---------------------------------------------------------------------------

if hasattr(np, "bitwise_count"):

    def popcount64(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a ``uint64`` array (numpy >= 2.0)."""
        return np.bitwise_count(words)

else:  # pragma: no cover - numpy < 2.0 fallback

    _M1 = np.uint64(0x5555555555555555)
    _M2 = np.uint64(0x3333333333333333)
    _M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    _H01 = np.uint64(0x0101010101010101)

    def popcount64(words: np.ndarray) -> np.ndarray:
        """SWAR popcount of a ``uint64`` array (pre-``bitwise_count`` numpy)."""
        v = words.astype(np.uint64, copy=True)
        v -= (v >> np.uint64(1)) & _M1
        v = (v & _M2) + ((v >> np.uint64(2)) & _M2)
        v = (v + (v >> np.uint64(4))) & _M4
        return ((v * _H01) >> np.uint64(56)).astype(np.uint8)


#: Event-axis chunk of :func:`xor_gather_reduce`: bounds the transient gather
#: to ``trajectories * CHUNK * words * 8`` bytes regardless of event count.
_XOR_CHUNK_EVENTS = 512


def xor_gather_reduce(masks: np.ndarray, chosen: np.ndarray) -> np.ndarray:
    """XOR of ``masks[e, chosen[t, e]]`` over events, per trajectory.

    ``masks`` is ``(events, branches, words)`` uint64, ``chosen`` is
    ``(trajectories, events)`` branch indices; returns the accumulated
    ``(trajectories, words)`` flip words.
    """
    T, E = chosen.shape
    out = np.zeros((T, masks.shape[2]), dtype=np.uint64)
    for start in range(0, E, _XOR_CHUNK_EVENTS):
        stop = min(E, start + _XOR_CHUNK_EVENTS)
        picked = masks[np.arange(start, stop)[None, :], chosen[:, start:stop]]
        out ^= np.bitwise_xor.reduce(picked, axis=1)
    return out


# ---------------------------------------------------------------------------
# Phase-free Clifford conjugation (suffix maps)
# ---------------------------------------------------------------------------


def compose_suffix_packed(
    x_of_x: List[int],
    x_of_z: List[int],
    name: str,
    qubits: Sequence[int],
    params: Sequence[float] = (),
) -> None:
    """Prepend one Clifford gate to a suffix conjugation map, in place.

    ``x_of_x[q]``/``x_of_z[q]`` hold the *x-parts* of the images of
    ``X_q``/``Z_q`` under conjugation by some gate suffix ``S``, each packed
    into one Python integer (qubit ``p`` at bit ``p``; :func:`ints_to_words`
    turns them into word rows).  This updates them to the map of ``S ∘ G``:
    the image of ``X_q`` becomes ``S(G X_q G†)``, a GF(2) combination of the
    *existing* rows, so each gate costs one or two integer XORs or swaps --
    walking a template backward builds every intermediate suffix map in
    ``O(gates)`` row operations, independent of how many Pauli rows will
    later be pushed through those maps.  Phase-free: ``rz``/``u1``/``p`` act
    as ``s`` at odd quarter turns and as the identity at even ones, and a
    gate's inverse maps like the gate itself (``sdg`` like ``s``, ``sxdg``
    like ``sx``, the rest self-inverse).
    """
    if name in ("id", "i", "x", "y", "z"):
        return
    if name == "h":
        a = qubits[0]
        x_of_x[a], x_of_z[a] = x_of_z[a], x_of_x[a]
    elif name in ("s", "sdg"):
        a = qubits[0]
        x_of_x[a] ^= x_of_z[a]
    elif name in ("sx", "sxdg"):
        a = qubits[0]
        x_of_z[a] ^= x_of_x[a]
    elif name in ("cx", "cnot"):
        c, t = qubits
        x_of_x[c] ^= x_of_x[t]
        x_of_z[t] ^= x_of_z[c]
    elif name == "cz":
        a, b = qubits
        x_of_x[a] ^= x_of_z[b]
        x_of_x[b] ^= x_of_z[a]
    elif name == "swap":
        a, b = qubits
        x_of_x[a], x_of_x[b] = x_of_x[b], x_of_x[a]
        x_of_z[a], x_of_z[b] = x_of_z[b], x_of_z[a]
    elif name in ("rz", "u1", "p"):
        quarter_turns = int(round(float(params[0]) / (math.pi / 2))) % 4
        if quarter_turns in (1, 3):
            a = qubits[0]
            x_of_x[a] ^= x_of_z[a]
    else:
        raise ValueError(f"gate '{name}' is not Clifford-propagatable")


def identity_suffix(num_qubits: int) -> Tuple[List[int], List[int]]:
    """The empty suffix's map: ``X_q`` maps to ``X_q``, ``Z_q`` has no x-part."""
    return [1 << q for q in range(num_qubits)], [0] * num_qubits


def ints_to_words(values: Sequence[int], words: int) -> np.ndarray:
    """Bit rows packed into Python integers as ``(len(values), words)`` uint64
    rows (bit ``i`` at bit ``i % 64`` of word ``i // 64``, as :func:`pack_rows`)."""
    size = 8 * int(words)
    data = b"".join(value.to_bytes(size, "little") for value in values)
    return np.frombuffer(data, dtype="<u8").reshape(len(values), words).astype(np.uint64)


def words_to_ints(rows: np.ndarray) -> List[int]:
    """Inverse of :func:`ints_to_words`: each ``(..., W)`` word row as an integer."""
    rows = np.asarray(rows, dtype=np.uint64)
    size = 8 * rows.shape[-1]
    data = rows.astype("<u8").tobytes()
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]


# ---------------------------------------------------------------------------
# Phase kernels (popcount arithmetic)
# ---------------------------------------------------------------------------


def phase_g_sum(
    x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray
) -> np.ndarray:
    """Column-summed CHP phase exponent ``sum_q g((x1,z1)_q, (x2,z2)_q)``.

    ``g`` is ``+1`` on qubit patterns ``(Z,X), (X,Y), (Y,Z)``, ``-1`` on
    ``(Z,Y), (X,Z), (Y,X)`` and ``0`` elsewhere; every pattern contains at
    least one *set* bit from each operand, so zero pad bits contribute
    nothing and the whole sum is two popcounts.  Broadcasts over leading
    axes; the trailing axis is the packed word axis.
    """
    plus = (
        (~x1 & z1 & x2 & ~z2)
        | (x1 & ~z1 & x2 & z2)
        | (x1 & z1 & ~x2 & z2)
    )
    minus = (
        (~x1 & z1 & x2 & z2)
        | (x1 & ~z1 & ~x2 & z2)
        | (x1 & z1 & x2 & ~z2)
    )
    return popcount64(plus).sum(axis=-1).astype(np.int64) - popcount64(minus).sum(
        axis=-1
    ).astype(np.int64)


def rowsum_rows(
    xw: np.ndarray,
    zw: np.ndarray,
    r: np.ndarray,
    rows: np.ndarray,
    source: int,
) -> None:
    """CHP rowsum of row ``source`` into every row of ``rows``, at once.

    Each target row is multiplied by the (unchanged) source row; because all
    rowsums of one measurement collapse share the source, they are
    independent and vectorize.  Phases follow Aaronson–Gottesman: the new
    sign bit is set iff ``2 r_h + 2 r_i + sum_q g(row_i, row_h) ≡ 2 (mod 4)``.
    """
    phase = (
        2 * r[rows].astype(np.int64)
        + 2 * int(r[source])
        + phase_g_sum(xw[source][None, :], zw[source][None, :], xw[rows], zw[rows])
    )
    r[rows] = (phase % 4) == 2
    xw[rows] ^= xw[source][None, :]
    zw[rows] ^= zw[source][None, :]


def product_phase(
    xw: np.ndarray, zw: np.ndarray, r: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, bool]:
    """Ordered product of commuting packed Pauli rows: ``(x, z, sign)``.

    Folds the rows top-down exactly like the sequential CHP rowsum
    reduction, one row at a time, but in one vectorized pass: the x/z part
    of the accumulator before step ``i`` is the prefix-XOR of rows
    ``0..i-1``, and since every prefix here is a stabilizer-group element
    (real ``±1`` sign, phase ``0`` or ``2`` mod 4), the per-step mod-4
    reductions commute with summing all contributions first.  Returns the
    packed product row and its sign bit (True = ``-1``).
    """
    if xw.shape[0] == 0:
        W = xw.shape[1] if xw.ndim == 2 else 0
        zeros = np.zeros(W, dtype=np.uint64)
        return zeros, zeros.copy(), False
    prefix_x = np.bitwise_xor.accumulate(xw, axis=0)
    prefix_z = np.bitwise_xor.accumulate(zw, axis=0)
    # Accumulator state before row i: prefix of rows < i (zero before row 0,
    # which contributes g(row, 0) = 0 — every g pattern needs a set bit from
    # the accumulator side too).
    before_x = np.zeros_like(xw)
    before_z = np.zeros_like(zw)
    before_x[1:] = prefix_x[:-1]
    before_z[1:] = prefix_z[:-1]
    total = 2 * int(r.sum()) + int(phase_g_sum(xw, zw, before_x, before_z).sum())
    return prefix_x[-1].copy(), prefix_z[-1].copy(), (total % 4) == 2

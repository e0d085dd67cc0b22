"""Aaronson–Gottesman stabilizer (CHP) simulator.

Clifford Decoy Circuits are simulated on this engine (paper Insight #1:
Clifford-only circuits are efficiently simulable on conventional computers).
The implementation follows the tableau algorithm of Aaronson & Gottesman,
"Improved simulation of stabilizer circuits" (2004).

The tableau, :class:`PackedCliffordTableau`, keeps its x/z half-rows
bit-packed into ``uint64`` words (:mod:`repro.simulators.symplectic`):
measurement collapse is one vectorized rowsum and the phase accumulator is
popcount arithmetic.  Gates run qubit-major
(:meth:`PackedCliffordTableau.apply_gates`): the tableau is transposed once
into one packed ``2n``-bit column per qubit for x and for z plus one for the
phases, so a CNOT is a few XORs and ANDs of four short columns, and
transposed back before anything is measured.  ``tests/test_symplectic_diff.py``
fuzzes it against the boolean-row reference tableau of the test suite
across the 64/128-bit word boundaries.

Supported gates: every Clifford gate in the IR (``x, y, z, h, s, sdg, sx,
sxdg, cx, cz, swap, id``) plus ``rz``/``u1`` at multiples of pi/2.
Measurements are computational-basis and read from the final state through
one routine, :meth:`StabilizerSimulator.support`, whose affine subspace
``probabilities`` lists and ``counts`` samples.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import CLIFFORD_GATE_NAMES, Gate
from . import symplectic
from .statevector import SimulationError

__all__ = [
    "StabilizerSimulator",
    "PackedCliffordTableau",
    "SUPPORTED_GATE_NAMES",
    "affine_points",
    "is_tableau_supported",
    "support_probabilities",
]

#: Test-only hook invoked on every tableau copy; the support copy-budget
#: regression counts through it.  Never set outside tests.
_COPY_HOOK: Optional[Callable[[], None]] = None


def _note_copy() -> None:
    if _COPY_HOOK is not None:
        _COPY_HOOK()

#: Gate names this engine applies directly — exactly the named Clifford set
#: of :mod:`repro.circuits.gates` (parametric rotations are handled by
#: :func:`is_tableau_supported` instead: they are Clifford only at quarter
#: turns, and only rz-like rotations have a tableau rule).
SUPPORTED_GATE_NAMES = frozenset(CLIFFORD_GATE_NAMES)

#: Angle tolerance of the quarter-turn check, shared by
#: :func:`is_tableau_supported` and the gate pass.
_QUARTER_TURN_ATOL = 1e-7


def is_tableau_supported(gate: Gate) -> bool:
    """True if this engine can apply ``gate`` exactly.

    The one Clifford-detection predicate for simulation purposes: the
    compiled-program layer uses it to decide whether a program qualifies for
    the stabilizer fast path, and :mod:`repro.core.ideal` whether an ideal
    output may come from the tableau, so neither can drift from what the
    simulator actually implements.  Note this is stricter than
    ``Gate.is_clifford``: rx/ry at quarter turns are mathematically Clifford
    but have no tableau rule here.
    """
    if gate.name in SUPPORTED_GATE_NAMES:
        return True
    if gate.name in ("rz", "u1", "p"):
        steps = gate.params[0] / (math.pi / 2)
        return math.isclose(steps, round(steps), abs_tol=_QUARTER_TURN_ATOL)
    return False


#: One gate of a gate pass: ``(name, qubits, params)``.
GateOp = Tuple[str, Sequence[int], Sequence[float]]


def _quarter_turns(angle: float) -> int:
    """``angle`` in quarter turns mod 4; raises unless it is a multiple of pi/2."""
    steps = angle / (math.pi / 2)
    rounded = round(steps)
    if not math.isclose(steps, rounded, abs_tol=_QUARTER_TURN_ATOL):
        raise SimulationError(
            f"rz({angle}) is not a Clifford rotation; simulate it on the dense"
            " statevector (repro.core.ideal tiers it there)"
        )
    return int(rounded) % 4


class PackedCliffordTableau:
    """The CHP tableau: ``2n`` rows of (x|z) bits plus a sign bit per row.

    Rows ``0..n-1`` are destabilizers, rows ``n..2n-1`` are stabilizers.
    Each x/z half-row is ``ceil(n/64)`` ``uint64`` words: qubit ``q`` lives
    at bit ``q % 64`` of word ``q // 64``.  Gates are applied in batches by
    :meth:`apply_gates` on the transposed tableau; measurement applies every
    rowsum of a collapse in one vectorized pass, with phases reduced to
    popcount arithmetic (:func:`repro.simulators.symplectic.phase_g_sum`).
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits <= 0:
            raise SimulationError("need at least one qubit")
        self.n = int(num_qubits)
        n = self.n
        self.num_words = symplectic.num_words(n)
        self.xw = np.zeros((2 * n, self.num_words), dtype=np.uint64)
        self.zw = np.zeros((2 * n, self.num_words), dtype=np.uint64)
        self.r = np.zeros(2 * n, dtype=bool)
        qubits = np.arange(n)
        bits = (np.uint64(1) << (qubits.astype(np.uint64) % np.uint64(64)))
        self.xw[qubits, qubits // 64] = bits          # destabilizer q = X_q
        self.zw[n + qubits, qubits // 64] = bits      # stabilizer q   = Z_q

    def copy(self) -> "PackedCliffordTableau":
        _note_copy()
        clone = PackedCliffordTableau.__new__(PackedCliffordTableau)
        clone.n = self.n
        clone.num_words = self.num_words
        clone.xw = self.xw.copy()
        clone.zw = self.zw.copy()
        clone.r = self.r.copy()
        return clone

    def _column(self, a: int) -> Tuple[int, np.uint64]:
        w, s = divmod(int(a), 64)
        return w, np.uint64(1) << np.uint64(s)

    # ------------------------------------------------------------------
    # Gates (qubit-major)
    # ------------------------------------------------------------------

    def apply_gates(
        self, ops: Iterable[GateOp], rng: Optional[np.random.Generator] = None
    ) -> None:
        """Apply ``(name, qubits, params)`` gates in order, qubit-major.

        The tableau is transposed once into :class:`_Columns` -- per qubit,
        its x and its z bits over all ``2n`` rows as one packed integer (row
        ``i`` at bit ``i``), and the phases likewise -- so each gate updates
        only its own qubits' columns.  ``reset`` measures (drawing from
        ``rng`` when the outcome is random), so it transposes back, measures
        row-major and transposes again.  Every update is GF(2) arithmetic
        under the CHP rules: the rows and phases equal a gate-by-gate column
        update bit for bit.
        """
        columns = _Columns(self)
        for name, qubits, params in ops:
            if name in ("rz", "u1", "p"):
                name = _QUARTER_TURN_GATES[_quarter_turns(params[0])]
            if name in ("id", "i"):
                continue
            if name == "reset":
                columns.store(self)
                outcome = self.measure(qubits[0], rng)
                columns = _Columns(self)
                if outcome == 1:
                    columns.x_(qubits[0])
                continue
            gate = _COLUMN_GATES.get(name)
            if gate is None:
                raise SimulationError(
                    f"gate '{name}' is not a Clifford gate supported by the"
                    " stabilizer engine"
                )
            gate(columns, *qubits)
        columns.store(self)

    # ------------------------------------------------------------------
    # Measurement (CHP algorithm, vectorized)
    # ------------------------------------------------------------------

    def measure(self, a: int, rng: np.random.Generator, forced: Optional[int] = None) -> int:
        """Measure qubit ``a`` in the computational basis, collapsing the state.

        ``forced`` fixes the outcome of a non-deterministic measurement (used
        by :meth:`StabilizerSimulator.support`).  All rowsums of a collapse are
        applied in one pass.
        """
        n = self.n
        w, mask = self._column(a)
        has_x = (self.xw[:, w] & mask) != 0
        stab_with_x = np.nonzero(has_x[n:])[0]
        if stab_with_x.size > 0:
            p = int(stab_with_x[0]) + n
            rows = np.nonzero(has_x)[0]
            rows = rows[rows != p]
            if rows.size:
                symplectic.rowsum_rows(self.xw, self.zw, self.r, rows, p)
            self.xw[p - n] = self.xw[p]
            self.zw[p - n] = self.zw[p]
            self.r[p - n] = self.r[p]
            self.xw[p] = 0
            self.zw[p] = 0
            self.zw[p, w] = mask
            if forced is None:
                outcome = int(rng.integers(0, 2))
            else:
                outcome = int(forced)
            self.r[p] = bool(outcome)
            return outcome
        # deterministic outcome: fold the stabilizer rows matching the
        # destabilizers that anticommute with Z_a (prefix-XOR phase kernel)
        dest_rows = np.nonzero(has_x[:n])[0]
        if dest_rows.size == 0:
            return 0
        rows = dest_rows + n
        _, _, sign = symplectic.product_phase(
            self.xw[rows], self.zw[rows], self.r[rows]
        )
        return int(sign)

    def is_deterministic(self, a: int) -> bool:
        """True if measuring qubit ``a`` would give a deterministic outcome."""
        w, mask = self._column(a)
        return not bool(((self.xw[self.n :, w] & mask) != 0).any())


class _Columns:
    """A tableau transposed for a gate pass: one packed column per qubit.

    ``x[q]`` and ``z[q]`` hold qubit ``q``'s x and z bits of all ``2n`` rows
    as one Python integer (row ``i`` at bit ``i``), ``r`` the phase bits.
    The gate rules are the CHP column rules of Aaronson & Gottesman; the
    composite gates are spelled out from them as the boolean reference
    tableau spells them.
    """

    __slots__ = ("x", "z", "r")

    def __init__(self, tableau: PackedCliffordTableau) -> None:
        n = tableau.n
        self.x = _columns(symplectic.unpack_rows(tableau.xw, n))
        self.z = _columns(symplectic.unpack_rows(tableau.zw, n))
        (self.r,) = _columns(tableau.r[:, None])

    def store(self, tableau: PackedCliffordTableau) -> None:
        """Write the columns back into ``tableau``'s packed rows."""
        n = tableau.n
        tableau.xw = symplectic.pack_rows(_column_bits(self.x, 2 * n), n)
        tableau.zw = symplectic.pack_rows(_column_bits(self.z, 2 * n), n)
        tableau.r = _column_bits([self.r], 2 * n)[:, 0]

    def h(self, a: int) -> None:
        x, z = self.x, self.z
        self.r ^= x[a] & z[a]
        x[a], z[a] = z[a], x[a]

    def s(self, a: int) -> None:
        self.r ^= self.x[a] & self.z[a]
        self.z[a] ^= self.x[a]

    def sdg(self, a: int) -> None:
        # Sdg = S Z = S S S
        self.s(a)
        self.z_(a)

    def x_(self, a: int) -> None:
        self.r ^= self.z[a]

    def z_(self, a: int) -> None:
        self.r ^= self.x[a]

    def y(self, a: int) -> None:
        self.r ^= self.x[a] ^ self.z[a]

    def sx(self, a: int) -> None:
        # SX = H S H (exactly, no extra phase)
        self.h(a)
        self.s(a)
        self.h(a)

    def sxdg(self, a: int) -> None:
        self.h(a)
        self.sdg(a)
        self.h(a)

    def cx(self, control: int, target: int) -> None:
        x, z = self.x, self.z
        xc, zt = x[control], z[target]
        self.r ^= xc & zt & ~(x[target] ^ z[control])
        x[target] ^= xc
        z[control] ^= zt

    def cz(self, a: int, b: int) -> None:
        self.h(b)
        self.cx(a, b)
        self.h(b)

    def swap(self, a: int, b: int) -> None:
        self.cx(a, b)
        self.cx(b, a)
        self.cx(a, b)


#: The gate each quarter turn of ``rz``/``u1``/``p`` applies.
_QUARTER_TURN_GATES = ("id", "s", "z", "sdg")

_COLUMN_GATES: Dict[str, Callable[..., None]] = {
    "x": _Columns.x_,
    "y": _Columns.y,
    "z": _Columns.z_,
    "h": _Columns.h,
    "s": _Columns.s,
    "sdg": _Columns.sdg,
    "sx": _Columns.sx,
    "sxdg": _Columns.sxdg,
    "cx": _Columns.cx,
    "cnot": _Columns.cx,
    "cz": _Columns.cz,
    "swap": _Columns.swap,
}


def _columns(bits: np.ndarray) -> List[int]:
    """Each column of a ``(height, width)`` bit matrix as one integer, row
    ``i`` at bit ``i``."""
    return symplectic.words_to_ints(symplectic.pack_rows(bits.T, bits.shape[0]))


def _column_bits(columns: Sequence[int], height: int) -> np.ndarray:
    """Inverse of :func:`_columns`: the ``(height, len(columns))`` bit matrix."""
    words = symplectic.ints_to_words(columns, symplectic.num_words(height))
    return symplectic.unpack_rows(words, height).T


def _forced_pass(tableau, one: Optional[int]) -> Tuple[np.ndarray, List[int]]:
    """Measure every qubit of ``tableau`` in place, forcing each free outcome.

    Free outcomes are forced to 0 except qubit ``one``'s, forced to 1, so no
    generator is ever drawn.  Returns the outcome bits and the free qubits.
    """
    bits = np.zeros(tableau.n, dtype=bool)
    free: List[int] = []
    for q in range(tableau.n):
        if tableau.is_deterministic(q):
            bits[q] = bool(tableau.measure(q, None))
        else:
            free.append(q)
            bits[q] = bool(tableau.measure(q, None, forced=int(q == one)))
    return bits, free


def affine_points(base: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Every point of ``base ⊕ span(basis)``, one per row.

    Rows of :meth:`StabilizerSimulator.support`'s basis lead with their own
    free qubit, in ascending order, so doubling from the last row to the
    first lists the points in ascending bitstring order.  Works on bit rows
    and on rows packed into integers alike.
    """
    points = np.asarray(base)[None, ...]
    for row in basis[::-1]:
        points = np.concatenate([points, points ^ row])
    return points


def _bitstring(bits: np.ndarray) -> str:
    return "".join("1" if bit else "0" for bit in bits)


def support_probabilities(
    base: np.ndarray, basis: np.ndarray, max_outcomes: int = 4096
) -> Dict[str, float]:
    """The distribution uniform on the affine support ``base ⊕ span(basis)``.

    Every point at weight ``0.5**k``, in ascending bitstring order (see
    :func:`affine_points`).  ``max_outcomes`` bounds the ``2**k`` points
    listed.
    """
    k = basis.shape[0]
    if 2 ** k > max_outcomes:
        raise SimulationError(
            "Clifford output support exceeds max_outcomes; sample counts instead"
        )
    weight = 0.5 ** k
    return {_bitstring(point): weight for point in affine_points(base, basis)}


class StabilizerSimulator:
    """Circuit-level front-end over :class:`PackedCliffordTableau`."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def run(self, circuit: QuantumCircuit, rng: Optional[np.random.Generator] = None):
        """Apply every gate of a Clifford circuit and return the final tableau."""
        return self.run_ops(circuit.num_qubits, _gate_ops(circuit), rng)

    def run_ops(
        self,
        num_qubits: int,
        ops: Iterable[GateOp],
        rng: Optional[np.random.Generator] = None,
    ):
        """Apply ``(name, qubits, params)`` gates to ``|0...0>``; the final tableau."""
        tableau = PackedCliffordTableau(num_qubits)
        tableau.apply_gates(ops, rng or self._rng)
        return tableau

    def support(self, circuit: QuantumCircuit) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`support_ops` of the circuit's gates."""
        return self.support_ops(circuit.num_qubits, _gate_ops(circuit))

    def support_ops(
        self, num_qubits: int, ops: Iterable[GateOp]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Affine support ``base ⊕ span(basis)`` of the final state's outcomes.

        A stabilizer state measured in the computational basis is uniform over
        an affine subspace (Aaronson & Gottesman 2004).  Measuring every qubit
        in order with each non-deterministic (free) outcome forced to 0 gives
        the base point; forcing one free bit to 1 gives that bit's basis row
        (XOR the base).  Which qubits are free does not depend on the forced
        outcomes, so one pass per free bit suffices.  Deterministic
        measurements never collapse the tableau and the last pass runs on the
        final tableau in place, so ``k`` free bits cost ``k`` copies.

        Returns ``base`` (``n`` bools) and ``basis`` (``k x n`` bools, one row
        per free qubit in ascending order).
        """
        final = self.run_ops(num_qubits, ops)
        n = final.n
        # With no free bit the base pass is the last one.
        deterministic = all(final.is_deterministic(q) for q in range(n))
        base, free = _forced_pass(final if deterministic else final.copy(), None)
        basis = np.zeros((len(free), n), dtype=bool)
        for row, qubit in enumerate(free):
            tableau = final if row == len(free) - 1 else final.copy()
            bits, _ = _forced_pass(tableau, qubit)
            basis[row] = bits ^ base
        return base, basis

    def counts(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        rng: Optional[np.random.Generator] = None,
    ) -> Dict[str, int]:
        """Sample measurement counts of all qubits: one uniform draw per free bit."""
        rng = rng or self._rng
        base, basis = self.support(circuit)
        draws = rng.integers(0, 2, size=(shots, basis.shape[0]))
        results: Dict[str, int] = {}
        for bits in base ^ ((draws @ basis) % 2 == 1):
            key = _bitstring(bits)
            results[key] = results.get(key, 0) + 1
        return results

    def probabilities(
        self,
        circuit: QuantumCircuit,
        max_outcomes: int = 4096,
    ) -> Dict[str, float]:
        """Exact output distribution of a Clifford circuit.

        Every point of :meth:`support` at weight ``0.5**k``, in ascending
        bitstring order.  ``max_outcomes`` bounds the ``2**k`` points listed.
        """
        return support_probabilities(*self.support(circuit), max_outcomes=max_outcomes)


def _gate_ops(circuit: QuantumCircuit) -> List[GateOp]:
    """The circuit's gates as ``(name, qubits, params)``, minus barriers,
    delays and measurements."""
    return [
        (gate.name, gate.qubits, gate.params)
        for gate in circuit
        if not (gate.is_barrier or gate.is_delay or gate.is_measurement)
    ]

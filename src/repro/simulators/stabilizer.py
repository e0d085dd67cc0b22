"""Aaronson–Gottesman stabilizer (CHP) simulator.

Clifford Decoy Circuits are simulated on this engine (paper Insight #1:
Clifford-only circuits are efficiently simulable on conventional computers).
The implementation follows the tableau algorithm of Aaronson & Gottesman,
"Improved simulation of stabilizer circuits" (2004).

The tableau, :class:`PackedCliffordTableau`, keeps its x/z half-rows
bit-packed into ``uint64`` words (:mod:`repro.simulators.symplectic`):
gates are word-column updates across all ``2n`` rows at once, measurement
collapse is one vectorized rowsum and the phase accumulator is popcount
arithmetic.  ``tests/test_symplectic_diff.py`` fuzzes it against the
boolean-row reference tableau of the test suite across the 64/128-bit word
boundaries.

Supported gates: every Clifford gate in the IR (``x, y, z, h, s, sdg, sx,
sxdg, cx, cz, swap, id``) plus ``rz``/``u1`` at multiples of pi/2.
Measurements are computational-basis and read from the final state through
one routine, :meth:`StabilizerSimulator.support`, whose affine subspace
``probabilities`` lists and ``counts`` samples.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

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

#: Angle tolerance of the quarter-turn check, shared with
#: :meth:`StabilizerSimulator._apply_clifford_rz`.
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


class PackedCliffordTableau:
    """The CHP tableau: ``2n`` rows of (x|z) bits plus a sign bit per row.

    Rows ``0..n-1`` are destabilizers, rows ``n..2n-1`` are stabilizers.
    Each x/z half-row is ``ceil(n/64)`` ``uint64`` words: qubit ``q`` lives
    at bit ``q % 64`` of word ``q // 64``.  Gates are one-or-two word-column
    updates across all ``2n`` rows; measurement applies every rowsum of a
    collapse in one vectorized pass, with phases reduced to popcount
    arithmetic (:func:`repro.simulators.symplectic.phase_g_sum`).
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

    # ------------------------------------------------------------------
    # Clifford generators (word-column updates, all rows at once)
    # ------------------------------------------------------------------

    def _column(self, a: int) -> Tuple[int, np.uint64]:
        w, s = divmod(int(a), 64)
        return w, np.uint64(1) << np.uint64(s)

    def apply_h(self, a: int) -> None:
        w, mask = self._column(a)
        self.r ^= (self.xw[:, w] & self.zw[:, w] & mask) != 0
        delta = (self.xw[:, w] ^ self.zw[:, w]) & mask
        self.xw[:, w] ^= delta
        self.zw[:, w] ^= delta

    def apply_s(self, a: int) -> None:
        w, mask = self._column(a)
        self.r ^= (self.xw[:, w] & self.zw[:, w] & mask) != 0
        self.zw[:, w] ^= self.xw[:, w] & mask

    def apply_sdg(self, a: int) -> None:
        # Sdg = S Z = S S S
        self.apply_s(a)
        self.apply_z(a)

    def apply_x(self, a: int) -> None:
        w, mask = self._column(a)
        self.r ^= (self.zw[:, w] & mask) != 0

    def apply_z(self, a: int) -> None:
        w, mask = self._column(a)
        self.r ^= (self.xw[:, w] & mask) != 0

    def apply_y(self, a: int) -> None:
        w, mask = self._column(a)
        self.r ^= ((self.xw[:, w] ^ self.zw[:, w]) & mask) != 0

    def apply_sx(self, a: int) -> None:
        # SX = H S H (exactly, no extra phase)
        self.apply_h(a)
        self.apply_s(a)
        self.apply_h(a)

    def apply_sxdg(self, a: int) -> None:
        self.apply_h(a)
        self.apply_sdg(a)
        self.apply_h(a)

    def apply_cx(self, control: int, target: int) -> None:
        wc, mc = self._column(control)
        wt, mt = self._column(target)
        sc = np.uint64(int(control) % 64)
        st = np.uint64(int(target) % 64)
        one = np.uint64(1)
        xc = (self.xw[:, wc] >> sc) & one
        zc = (self.zw[:, wc] >> sc) & one
        xt = (self.xw[:, wt] >> st) & one
        zt = (self.zw[:, wt] >> st) & one
        self.r ^= (xc & zt & (xt ^ zc ^ one)) != 0
        self.xw[:, wt] ^= xc << st
        self.zw[:, wc] ^= zt << sc

    def apply_cz(self, a: int, b: int) -> None:
        self.apply_h(b)
        self.apply_cx(a, b)
        self.apply_h(b)

    def apply_swap(self, a: int, b: int) -> None:
        self.apply_cx(a, b)
        self.apply_cx(b, a)
        self.apply_cx(a, b)

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


class StabilizerSimulator:
    """Circuit-level front-end over :class:`PackedCliffordTableau`."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def run(self, circuit: QuantumCircuit, rng: Optional[np.random.Generator] = None):
        """Apply every gate of a Clifford circuit and return the final tableau."""
        rng = rng or self._rng
        tableau = PackedCliffordTableau(circuit.num_qubits)
        for gate in circuit:
            if gate.is_barrier or gate.is_delay or gate.is_measurement:
                continue
            self._apply(tableau, gate, rng)
        return tableau

    def support(self, circuit: QuantumCircuit) -> Tuple[np.ndarray, np.ndarray]:
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
        final = self.run(circuit)
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
        base, basis = self.support(circuit)
        k = basis.shape[0]
        if 2 ** k > max_outcomes:
            raise SimulationError(
                "Clifford output support exceeds max_outcomes; sample counts instead"
            )
        weight = 0.5 ** k
        return {_bitstring(point): weight for point in affine_points(base, basis)}

    # ------------------------------------------------------------------

    def _apply(self, tableau: PackedCliffordTableau, gate: Gate, rng: np.random.Generator) -> None:
        name = gate.name
        qubits = gate.qubits
        if name in ("id", "i"):
            return
        if name == "x":
            tableau.apply_x(qubits[0])
        elif name == "y":
            tableau.apply_y(qubits[0])
        elif name == "z":
            tableau.apply_z(qubits[0])
        elif name == "h":
            tableau.apply_h(qubits[0])
        elif name == "s":
            tableau.apply_s(qubits[0])
        elif name == "sdg":
            tableau.apply_sdg(qubits[0])
        elif name == "sx":
            tableau.apply_sx(qubits[0])
        elif name == "sxdg":
            tableau.apply_sxdg(qubits[0])
        elif name in ("cx", "cnot"):
            tableau.apply_cx(qubits[0], qubits[1])
        elif name == "cz":
            tableau.apply_cz(qubits[0], qubits[1])
        elif name == "swap":
            tableau.apply_swap(qubits[0], qubits[1])
        elif name in ("rz", "u1", "p"):
            self._apply_clifford_rz(tableau, qubits[0], gate.params[0])
        elif name == "reset":
            outcome = tableau.measure(qubits[0], rng)
            if outcome == 1:
                tableau.apply_x(qubits[0])
        else:
            raise SimulationError(
                f"gate '{name}' is not a Clifford gate supported by the stabilizer engine"
            )

    @staticmethod
    def _apply_clifford_rz(tableau: PackedCliffordTableau, qubit: int, angle: float) -> None:
        steps = angle / (math.pi / 2)
        rounded = round(steps)
        if not math.isclose(steps, rounded, abs_tol=_QUARTER_TURN_ATOL):
            raise SimulationError(
                f"rz({angle}) is not a Clifford rotation; simulate it on the dense"
                " statevector (repro.core.ideal tiers it there)"
            )
        quarter_turns = int(rounded) % 4
        if quarter_turns == 1:
            tableau.apply_s(qubit)
        elif quarter_turns == 2:
            tableau.apply_z(qubit)
        elif quarter_turns == 3:
            tableau.apply_sdg(qubit)

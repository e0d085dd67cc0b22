"""The boolean-row CHP tableau: one ``bool`` per qubit, one rule per column.

The reference for :class:`repro.simulators.stabilizer.PackedCliffordTableau`
(same interface, same RNG consumption), following Aaronson & Gottesman,
"Improved simulation of stabilizer circuits" (2004), line by line; and
:func:`enumerate_probabilities`, the recursive branch walk that is the
reference for :meth:`repro.simulators.stabilizer.StabilizerSimulator.probabilities`.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.simulators import symplectic
from repro.simulators.stabilizer import PackedCliffordTableau
from repro.simulators.statevector import SimulationError


class CliffordTableau:
    """The CHP tableau: 2n rows of (x|z) bits plus a sign bit per row.

    Rows ``0..n-1`` are destabilizers, rows ``n..2n-1`` are stabilizers.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits <= 0:
            raise SimulationError("need at least one qubit")
        self.n = int(num_qubits)
        n = self.n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=bool)
        for i in range(n):
            self.x[i, i] = True          # destabilizer i = X_i
            self.z[n + i, i] = True      # stabilizer i   = Z_i

    def copy(self) -> CliffordTableau:
        clone = CliffordTableau.__new__(CliffordTableau)
        clone.n = self.n
        clone.x = self.x.copy()
        clone.z = self.z.copy()
        clone.r = self.r.copy()
        return clone

    # -- converters to and from the packed tableau ----------------------

    @classmethod
    def from_packed(cls, packed: PackedCliffordTableau) -> CliffordTableau:
        clone = cls.__new__(cls)
        clone.n = packed.n
        clone.x = symplectic.unpack_rows(packed.xw, packed.n)
        clone.z = symplectic.unpack_rows(packed.zw, packed.n)
        clone.r = packed.r.copy()
        return clone

    def to_packed(self) -> PackedCliffordTableau:
        clone = PackedCliffordTableau.__new__(PackedCliffordTableau)
        clone.n = self.n
        clone.num_words = symplectic.num_words(self.n)
        clone.xw = symplectic.pack_rows(self.x, self.n)
        clone.zw = symplectic.pack_rows(self.z, self.n)
        clone.r = self.r.copy()
        return clone

    # ------------------------------------------------------------------
    # Clifford generators
    # ------------------------------------------------------------------

    def apply_h(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.x[:, a], self.z[:, a] = self.z[:, a].copy(), self.x[:, a].copy()

    def apply_s(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.z[:, a] ^= self.x[:, a]

    def apply_sdg(self, a: int) -> None:
        # Sdg = S Z = S S S
        self.apply_s(a)
        self.apply_z(a)

    def apply_x(self, a: int) -> None:
        self.r ^= self.z[:, a]

    def apply_z(self, a: int) -> None:
        self.r ^= self.x[:, a]

    def apply_y(self, a: int) -> None:
        self.r ^= self.x[:, a] ^ self.z[:, a]

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
        xc, zc = self.x[:, control], self.z[:, control]
        xt, zt = self.x[:, target], self.z[:, target]
        self.r ^= xc & zt & (xt ^ zc ^ True)
        self.x[:, target] = xt ^ xc
        self.z[:, control] = zc ^ zt

    def apply_cz(self, a: int, b: int) -> None:
        self.apply_h(b)
        self.apply_cx(a, b)
        self.apply_h(b)

    def apply_swap(self, a: int, b: int) -> None:
        self.apply_cx(a, b)
        self.apply_cx(b, a)
        self.apply_cx(a, b)

    def apply_gates(self, ops, rng=None) -> None:
        """Apply ``(name, qubits, params)`` gates one column rule at a time."""
        for name, qubits, params in ops:
            if name in ("id", "i"):
                continue
            if name in ("rz", "u1", "p"):
                steps = params[0] / (math.pi / 2)
                if not math.isclose(steps, round(steps), abs_tol=1e-7):
                    raise SimulationError(f"rz({params[0]}) is not a Clifford rotation")
                rule = (None, self.apply_s, self.apply_z, self.apply_sdg)[round(steps) % 4]
                if rule is not None:
                    rule(qubits[0])
            elif name == "reset":
                if self.measure(qubits[0], rng) == 1:
                    self.apply_x(qubits[0])
            elif name in ("cx", "cnot"):
                self.apply_cx(*qubits)
            elif name in ("x", "y", "z", "h", "s", "sdg", "sx", "sxdg", "cz", "swap"):
                getattr(self, f"apply_{name}")(*qubits)
            else:
                raise SimulationError(f"gate '{name}' is not a Clifford gate")

    # ------------------------------------------------------------------
    # Measurement (CHP algorithm)
    # ------------------------------------------------------------------

    def _g(self, x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """Phase exponent contribution of multiplying two Pauli columns."""
        x1i, z1i = x1.astype(np.int8), z1.astype(np.int8)
        x2i, z2i = x2.astype(np.int8), z2.astype(np.int8)
        result = np.zeros_like(x1i)
        # (x1,z1) == (0,1): Z  -> x2*(1-2*z2)
        mask = (x1i == 0) & (z1i == 1)
        result[mask] = (x2i * (1 - 2 * z2i))[mask]
        # (x1,z1) == (1,0): X  -> z2*(2*x2-1)
        mask = (x1i == 1) & (z1i == 0)
        result[mask] = (z2i * (2 * x2i - 1))[mask]
        # (x1,z1) == (1,1): Y  -> z2 - x2
        mask = (x1i == 1) & (z1i == 1)
        result[mask] = (z2i - x2i)[mask]
        return result

    def _rowsum_into(
        self,
        hx: np.ndarray,
        hz: np.ndarray,
        hr: bool,
        i: int,
    ) -> Tuple[np.ndarray, np.ndarray, bool]:
        """Multiply row ``i`` into an explicit (x, z, r) row and return it."""
        phase = 2 * int(hr) + 2 * int(self.r[i]) + int(
            self._g(self.x[i], self.z[i], hx, hz).sum()
        )
        phase %= 4
        new_r = phase == 2
        return hx ^ self.x[i], hz ^ self.z[i], new_r

    def _rowsum(self, h: int, i: int) -> None:
        self.x[h], self.z[h], self.r[h] = self._rowsum_into(
            self.x[h], self.z[h], bool(self.r[h]), i
        )

    def measure(self, a: int, rng: np.random.Generator, forced: Optional[int] = None) -> int:
        """Measure qubit ``a`` in the computational basis, collapsing the state.

        ``forced`` fixes the outcome of a non-deterministic measurement (used
        by the exact-probability enumeration).
        """
        n = self.n
        stab_with_x = np.nonzero(self.x[n:, a])[0]
        if stab_with_x.size > 0:
            p = int(stab_with_x[0]) + n
            for i in range(2 * n):
                if i != p and self.x[i, a]:
                    self._rowsum(i, p)
            self.x[p - n] = self.x[p].copy()
            self.z[p - n] = self.z[p].copy()
            self.r[p - n] = self.r[p]
            self.x[p] = False
            self.z[p] = False
            self.z[p, a] = True
            if forced is None:
                outcome = int(rng.integers(0, 2))
            else:
                outcome = int(forced)
            self.r[p] = bool(outcome)
            return outcome
        # deterministic outcome
        hx = np.zeros(n, dtype=bool)
        hz = np.zeros(n, dtype=bool)
        hr = False
        for i in range(n):
            if self.x[i, a]:
                hx, hz, hr = self._rowsum_into(hx, hz, hr, i + n)
        return int(hr)

    def is_deterministic(self, a: int) -> bool:
        """True if measuring qubit ``a`` would give a deterministic outcome."""
        return not bool(self.x[self.n :, a].any())


def enumerate_probabilities(tableau, max_outcomes: int = 4096) -> Dict[str, float]:
    """Exact outcome distribution of a final tableau, by recursive branching.

    Measures the qubits in order; at each non-deterministic qubit the walk
    branches, the 0-branch on a copy first, and halves the weight.  Each
    recursion level owns its tableau (deterministic measurements never
    collapse it), so ``w`` free bits cost ``2^w - 1`` copies.  Consumes
    ``tableau``.
    """
    n = tableau.n
    rng = np.random.default_rng(0)
    outcomes: Dict[str, float] = {}

    def recurse(tableau, qubit: int, prefix: str, weight: float) -> None:
        while qubit < n:
            if len(outcomes) > max_outcomes:
                raise SimulationError(
                    "Clifford output support exceeds max_outcomes; sample"
                    " counts instead"
                )
            if tableau.is_deterministic(qubit):
                prefix += str(tableau.measure(qubit, rng))
                qubit += 1
                continue
            branch = tableau.copy()
            branch.measure(qubit, rng, forced=0)
            recurse(branch, qubit + 1, prefix + "0", weight / 2.0)
            tableau.measure(qubit, rng, forced=1)
            prefix += "1"
            qubit += 1
            weight /= 2.0
        outcomes[prefix] = outcomes.get(prefix, 0.0) + weight

    recurse(tableau, 0, "", 1.0)
    return outcomes

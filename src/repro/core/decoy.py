"""Decoy circuits: Clifford (CDC), Seeded (SDC) and trivial decoys.

ADAPT cannot score DD combinations on the input program directly because the
program's correct output is unknown.  Instead it builds a *decoy circuit* that
(1) preserves the program's CNOT structure — and therefore its schedule, idle
windows and crosstalk exposure — and (2) is efficiently simulable so its ideal
output is known (Section 4.2).

Three constructions are provided:

* **CDC** — every non-Clifford gate is replaced by its closest Clifford under
  the operator norm (Equation 1); simulable on the stabilizer tableau.
* **SDC** — like the CDC, but the first non-Clifford gate encountered on each
  of a few "seed" qubits is kept.  The handful of non-Clifford seeds keeps the
  output distribution low-entropy (and therefore sensitive to idling errors)
  while remaining cheap to simulate (Section 4.2.3): the dense statevector
  covers them up to 16 qubits, and wider ones are refused
  (:data:`repro.core.ideal.DECOY_TIERS`).
* **trivial** — single-qubit gates dropped entirely, CNOT skeleton only
  (Figure 10(b)); used as a baseline in the decoy-quality ablation.

Because replacement gates keep the same qubit and (for diagonal rotations) the
same zero duration, the decoy's Gate Sequence Table is essentially identical
to the input program's, which is what makes the fidelity trends transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate, closest_clifford
from ..metrics.fidelity import normalized_entropy
from . import ideal

__all__ = ["DecoyCircuit", "clifford_decoy", "seeded_decoy", "trivial_decoy", "make_decoy"]


@dataclass
class DecoyCircuit:
    """A decoy plus its precomputed ideal output distribution."""

    kind: str
    circuit: QuantumCircuit
    source: QuantumCircuit
    num_non_clifford: int

    _ideal: Optional[Dict[tuple, Dict[str, float]]] = None

    def ideal_distribution(self, output_qubits) -> Dict[str, float]:
        """Noise-free output distribution over ``output_qubits``.

        The decoy only needs to be simulated once: DD insertion does not
        change the ideal output (the pulses compose to identity), so the same
        distribution is reused for every DD combination during the search.
        """
        key = tuple(output_qubits)
        if self._ideal is None:
            self._ideal = {}
        if key not in self._ideal:
            self._ideal[key] = ideal.ideal_distribution(self.circuit, key, ideal.DECOY_TIERS)
        return self._ideal[key]

    def output_entropy(self, output_qubits) -> float:
        """Normalised Shannon entropy of the decoy's ideal output."""
        distribution = self.ideal_distribution(output_qubits)
        return normalized_entropy(distribution, len(tuple(output_qubits)))

    def preserves_structure(self) -> bool:
        """True if the decoy kept the source's two-qubit gate structure.

        The ordered sequence of two-qubit gate qubit pairs must be identical;
        positions may shift for the trivial decoy (which drops single-qubit
        gates) but the CNOT pattern — and therefore the crosstalk exposure —
        must be preserved (paper Insight #2).
        """
        decoy_pairs = [pair for _, pair in self.circuit.two_qubit_structure()]
        source_pairs = [pair for _, pair in self.source.two_qubit_structure()]
        return decoy_pairs == source_pairs


def _replace_with_clifford(gate: Gate) -> Gate:
    replacement = closest_clifford(gate.name, gate.params)
    return Gate(name=replacement, qubits=gate.qubits, label=gate.label)


def clifford_decoy(circuit: QuantumCircuit) -> DecoyCircuit:
    """Clifford Decoy Circuit: every non-Clifford gate replaced (Section 4.2.1)."""

    def transform(gate: Gate):
        if not gate.is_unitary or gate.is_clifford or gate.num_qubits != 1:
            yield gate
        else:
            yield _replace_with_clifford(gate)

    decoy = circuit.map_gates(transform)
    decoy.name = f"{circuit.name}-cdc"
    return DecoyCircuit(
        kind="cdc", circuit=decoy, source=circuit, num_non_clifford=0
    )


def seeded_decoy(
    circuit: QuantumCircuit,
    max_seed_qubits: int = 4,
    seeds_per_qubit: int = 1,
) -> DecoyCircuit:
    """Seeded Decoy Circuit: a few non-Clifford seed gates survive (Section 4.2.3).

    Args:
        max_seed_qubits: number of distinct qubits allowed to keep seeds.
        seeds_per_qubit: non-Clifford gates kept per seed qubit (counted from
            the start of the circuit, i.e. the "initial layer").
    """
    kept_per_qubit: Dict[int, int] = {}
    seed_qubits: list = []
    decoy = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}-sdc")
    num_kept = 0
    for gate in circuit:
        if not gate.is_unitary or gate.is_clifford or gate.num_qubits != 1:
            decoy.append(gate)
            continue
        qubit = gate.qubits[0]
        if qubit not in seed_qubits and len(seed_qubits) < max_seed_qubits:
            seed_qubits.append(qubit)
        if qubit in seed_qubits and kept_per_qubit.get(qubit, 0) < seeds_per_qubit:
            kept_per_qubit[qubit] = kept_per_qubit.get(qubit, 0) + 1
            num_kept += 1
            decoy.append(gate)
        else:
            decoy.append(_replace_with_clifford(gate))
    return DecoyCircuit(
        kind="sdc", circuit=decoy, source=circuit, num_non_clifford=num_kept
    )


def trivial_decoy(circuit: QuantumCircuit) -> DecoyCircuit:
    """CNOT-skeleton decoy: all single-qubit unitaries removed (Figure 10(b))."""

    def transform(gate: Gate):
        if gate.is_unitary and gate.num_qubits == 1:
            return
        yield gate

    decoy = circuit.map_gates(transform)
    decoy.name = f"{circuit.name}-trivial"
    return DecoyCircuit(
        kind="trivial", circuit=decoy, source=circuit, num_non_clifford=0
    )


def make_decoy(circuit: QuantumCircuit, kind: str = "sdc", **kwargs) -> DecoyCircuit:
    """Factory over the three decoy constructions (``"cdc"``, ``"sdc"``, ``"trivial"``)."""
    kind = kind.lower()
    if kind == "cdc":
        return clifford_decoy(circuit)
    if kind == "sdc":
        return seeded_decoy(circuit, **kwargs)
    if kind == "trivial":
        return trivial_decoy(circuit)
    raise ValueError(f"unknown decoy kind '{kind}' (expected cdc, sdc or trivial)")

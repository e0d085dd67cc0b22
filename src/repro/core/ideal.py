"""The one noise-free output path: tiered ideal distributions.

Every fidelity this package reports is taken against a noise-free output
distribution — the program's for the policies, a decoy's for ADAPT's scores
(Section 4.2) — and :func:`ideal_distribution` computes all of them.  It
compacts the circuit to the qubits it touches, simulates it on the first
*tier* that applies, and marginalises onto the requested output qubits.

A tier is ``(method, qubit_limit)`` over the compacted width (``None``: any
width).  ``"statevector"`` is the dense simulator; ``"tableau"`` is the exact
stabilizer support, and applies only when every gate has a tableau rule
(:func:`~repro.simulators.stabilizer.is_tableau_supported`).  The two tier
orders are data because their callers have different histories, and the
tableau and statevector outputs can differ in the last bits:

* :data:`PROGRAM_TIERS` — compiled and logical programs: the statevector up
  to 16 qubits, the tableau for Clifford programs beyond, the statevector
  again up to 24 qubits (a routed ``QFT:18``);
* :data:`DECOY_TIERS` — decoy circuits: the tableau whenever it applies, the
  statevector up to 16 qubits otherwise (seeded decoys).

A circuit no tier covers raises a :class:`ValueError` naming its width.

:func:`tier_method` names the tier a circuit would take, and
:func:`support_distribution` is the tableau tier's last step on its own, for
a caller that already holds the support: an execution context
(:class:`repro.service.requests.ExecutionContext`) reads it from the compiled
noisy program the Clifford engines have just used.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..simulators.stabilizer import (
    StabilizerSimulator,
    is_tableau_supported,
    support_probabilities,
)
from ..simulators.statevector import StatevectorSimulator

__all__ = [
    "DECOY_TIERS",
    "PROGRAM_TIERS",
    "ideal_distribution",
    "support_distribution",
    "tier_method",
]

Tiers = Tuple[Tuple[str, Optional[int]], ...]

PROGRAM_TIERS: Tiers = (("statevector", 16), ("tableau", None), ("statevector", 24))
DECOY_TIERS: Tiers = (("tableau", None), ("statevector", 16))


def _no_tableau_rule(circuit: QuantumCircuit) -> List[str]:
    return sorted(
        {
            gate.name
            for gate in circuit
            if not (gate.is_measurement or gate.is_barrier or gate.is_delay)
            and not is_tableau_supported(gate)
        }
    )


def _statevector(circuit: QuantumCircuit) -> Iterable[Tuple[str, float]]:
    probabilities = StatevectorSimulator().probabilities(circuit)
    n = circuit.num_qubits
    return [
        (format(index, f"0{n}b"), float(probabilities[index]))
        for index in np.flatnonzero(probabilities > 1e-12)
    ]


def _tableau(circuit: QuantumCircuit) -> Iterable[Tuple[str, float]]:
    return StabilizerSimulator().probabilities(circuit).items()


_METHODS = {"statevector": _statevector, "tableau": _tableau}


def _pick(width: int, unsupported: List[str], tiers: Tiers) -> str:
    for method, limit in tiers:
        if limit is not None and width > limit:
            continue
        if method == "tableau" and unsupported:
            continue
        return method
    dense_limit = max(limit for method, limit in tiers if method == "statevector")
    raise ValueError(
        f"cannot compute the ideal distribution of a {width}-qubit"
        f" non-Clifford circuit (gates {unsupported} have no tableau"
        f" rule, and the dense statevector stops at {dense_limit}"
        " qubits); only Clifford circuits scale further"
    )


def tier_method(circuit: QuantumCircuit, tiers: Tiers) -> str:
    """The method :func:`ideal_distribution` uses for ``circuit``.

    ``"statevector"`` or ``"tableau"``, picked on the compacted width without
    compacting; a circuit no tier covers raises the same ``ValueError``.
    """
    return _pick(max(1, len(circuit.qubits_used())), _no_tableau_rule(circuit), tiers)


def _marginal(
    outcomes: Iterable[Tuple[str, float]], used: Sequence[int], output_qubits: Sequence[int]
) -> Dict[str, float]:
    position = {qubit: index for index, qubit in enumerate(used)}
    distribution: Dict[str, float] = {}
    for bits, probability in outcomes:
        out = "".join(bits[position[q]] if q in position else "0" for q in output_qubits)
        distribution[out] = distribution.get(out, 0.0) + probability
    return distribution


def ideal_distribution(
    circuit: QuantumCircuit, output_qubits: Sequence[int], tiers: Tiers
) -> Dict[str, float]:
    """Noise-free distribution of ``circuit`` over ``output_qubits``.

    Keys list ``output_qubits`` in the given order (an output qubit the
    circuit never touches reads 0); outcomes are accumulated in ascending
    bitstring order of the compacted circuit.
    """
    compacted, used = circuit.compact()
    method = _pick(compacted.num_qubits, _no_tableau_rule(compacted), tiers)
    return _marginal(_METHODS[method](compacted), used, output_qubits)


def support_distribution(
    base: np.ndarray, basis: np.ndarray, used: Sequence[int], output_qubits: Sequence[int]
) -> Dict[str, float]:
    """The tableau tier's distribution from an already computed support.

    ``base ⊕ span(basis)`` is the support over the qubits ``used`` (qubit
    ``i`` is ``used[i]``), ascending.  The result equals
    :func:`ideal_distribution`'s whenever :func:`tier_method` picks the
    tableau and ``used`` holds every qubit a gate of the circuit touches: a
    qubit that only barriers touch reads 0 and leaves the outcome order as
    it is.
    """
    return _marginal(support_probabilities(base, basis).items(), used, output_qubits)

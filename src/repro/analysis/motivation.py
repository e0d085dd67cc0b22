"""Motivation experiments: Figure 1(e), Figure 3(b) and Table 1.

* Figure 1(e): the three-qubit example where DD on a single well-chosen qubit
  beats both no-DD and DD-on-all.
* Figure 3(b): idle time of Q0 in Bernstein–Vazirani circuits of growing size
  on IBMQ-Toronto (SWAP-constrained) versus a hypothetical machine with the
  same error rates but all-to-all connectivity.
* Table 1: program latency, per-qubit idle fraction and No-DD / All-DD
  fidelity of three 5-qubit workloads on IBMQ-Rome.

The drivers execute through the unified execution core: the four DD options
of Figure 1 (and the No-DD / All-DD pair of Table 1) run against one cached
:class:`~repro.hardware.program.CompiledNoisyProgram` per circuit.  These are
*measurement* contexts — the fidelities are the reported results — so every
execution pins ``engine="auto_dense"``: even the Clifford motivation example
stays on the exact dense engines rather than the Pauli-twirled stabilizer
fast path (which is reserved for scoring/ranking contexts such as decoy
scoring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..circuits.circuit import QuantumCircuit
from ..core.evaluation import compiled_ideal_distribution
from ..dd.insertion import DDAssignment
from ..hardware.backend import Backend
from ..hardware.calibration import generate_calibration
from ..hardware.devices import synthetic_device
from ..hardware.execution import NoisyExecutor
from ..metrics.fidelity import fidelity
from ..transpiler.transpile import transpile
from ..workloads.bv import bernstein_vazirani
from ..workloads.suite import get_benchmark

__all__ = [
    "motivation_example_circuit",
    "figure1_motivation_study",
    "figure3_swap_idle_study",
    "table1_idle_fractions",
]


def motivation_example_circuit(cnot_repetitions: int = 4) -> QuantumCircuit:
    """A 3-qubit circuit in the spirit of Figure 1(a).

    Qubit 1 stays busy throughout; qubit 0 idles while CNOTs run on the (1, 2)
    pair and qubit 2 idles while CNOTs run on the (0, 1) pair, so the two
    spectator qubits see different amounts of idle time and crosstalk — which
    is what makes the best DD subset non-obvious.
    """
    circuit = QuantumCircuit(3, name="motivation")
    circuit.h(0)
    circuit.h(2)
    circuit.cx(2, 1)
    for _ in range(cnot_repetitions):
        circuit.cx(0, 1)
    for _ in range(cnot_repetitions):
        circuit.cx(2, 1)
    circuit.cx(0, 1)
    circuit.h(0)
    circuit.h(2)
    circuit.measure_all()
    return circuit


def figure1_motivation_study(
    backend: Optional[Backend] = None,
    shots: int = 4096,
    seed: int = 1,
) -> Dict[str, float]:
    """Relative fidelity of the four DD options of Figure 1(b-e)."""
    backend = backend or Backend.from_name("ibmq_london")
    executor = NoisyExecutor(backend, seed=seed)
    compiled = transpile(motivation_example_circuit(), backend)
    ideal = compiled_ideal_distribution(compiled)
    qubits = list(compiled.output_qubits)
    options = {
        "no_dd": DDAssignment.none(),
        "dd_all": DDAssignment.all(compiled.gst.active_qubits()),
        "dd_q0_only": DDAssignment.all([qubits[0]]),
        "dd_q2_only": DDAssignment.all([qubits[2]]),
    }
    fidelities = {}
    for name, assignment in options.items():
        result = executor.run(
            compiled.physical_circuit,
            dd_assignment=assignment,
            shots=shots,
            output_qubits=compiled.output_qubits,
            gst=compiled.gst,
            engine="auto_dense",
        )
        fidelities[name] = fidelity(ideal, result.probabilities)
    baseline = max(fidelities["no_dd"], 1e-9)
    return {name: value / baseline for name, value in fidelities.items()}


@dataclass(frozen=True)
class SwapIdleRecord:
    """Idle statistics for one BV size on one topology."""

    num_qubits: int
    topology: str
    num_swaps: int
    idle_time_us: float        # idle time of the most-idle program qubit ("Q0")
    avg_idle_time_us: float    # mean idle time over all program qubits
    latency_us: float


def _swap_idle_record(compiled, size: int, topology: str) -> SwapIdleRecord:
    gst = compiled.gst
    per_qubit = [gst.total_idle_time(q) for q in gst.active_qubits()]
    return SwapIdleRecord(
        num_qubits=size,
        topology=topology,
        num_swaps=compiled.num_swaps,
        idle_time_us=max(per_qubit, default=0.0) / 1000.0,
        avg_idle_time_us=(sum(per_qubit) / max(1, len(per_qubit))) / 1000.0,
        latency_us=compiled.latency_us(),
    )


def figure3_swap_idle_study(
    sizes: Sequence[int] = (4, 5, 6, 7, 8),
    device_name: str = "ibmq_toronto",
) -> List[SwapIdleRecord]:
    """Idle time of the most-idle qubit for BV circuits: Toronto vs all-to-all.

    SWAP insertion on the constrained topology serializes the CNOT chain, so
    both the worst-qubit and the average idle time grow faster with circuit
    size than on a machine with identical error rates but full connectivity
    (Figure 3(b)).
    """
    constrained = Backend.from_name(device_name)
    records: List[SwapIdleRecord] = []
    for size in sizes:
        circuit = bernstein_vazirani(size)

        compiled = transpile(circuit, constrained)
        records.append(_swap_idle_record(compiled, size, device_name))

        ideal_device = synthetic_device(
            max(size, 2), name="all-to-all", template=device_name
        )
        ideal_backend = Backend(
            ideal_device, generate_calibration(ideal_device, cycle=0)
        )
        compiled_ideal = transpile(circuit, ideal_backend)
        records.append(_swap_idle_record(compiled_ideal, size, "all-to-all"))
    return records


def table1_idle_fractions(
    device_name: str = "ibmq_rome",
    benchmarks: Sequence[str] = ("QFT-5", "QAOA-5", "ADDER-4"),
    shots: int = 4096,
    seed: int = 2,
) -> List[Dict[str, object]]:
    """Program latency, per-qubit idle fraction and No-DD / All-DD fidelity."""
    backend = Backend.from_name(device_name)
    executor = NoisyExecutor(backend, seed=seed)
    rows: List[Dict[str, object]] = []
    for name in benchmarks:
        circuit = get_benchmark(name).build()
        compiled = transpile(circuit, backend)
        ideal = compiled_ideal_distribution(compiled)
        idle_fractions = {
            f"Q{logical}": compiled.gst.idle_fraction(physical)
            for logical, physical in enumerate(compiled.output_qubits)
        }
        result_no_dd = executor.run(
            compiled.physical_circuit,
            shots=shots,
            output_qubits=compiled.output_qubits,
            gst=compiled.gst,
            engine="auto_dense",
        )
        result_all_dd = executor.run(
            compiled.physical_circuit,
            dd_assignment=DDAssignment.all(compiled.gst.active_qubits()),
            shots=shots,
            output_qubits=compiled.output_qubits,
            gst=compiled.gst,
            engine="auto_dense",
        )
        rows.append(
            {
                "benchmark": name,
                "latency_us": compiled.latency_us(),
                "idle_fraction": idle_fractions,
                "fidelity_no_dd": fidelity(ideal, result_no_dd.probabilities),
                "fidelity_all_dd": fidelity(ideal, result_all_dd.probabilities),
            }
        )
    return rows

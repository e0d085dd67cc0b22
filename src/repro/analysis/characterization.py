"""Device characterisation experiments (Section 3, Figures 4-6 and 16).

These drivers reproduce the paper's idling-error characterisation:

* :func:`idle_characterization_circuit` — the Ry(theta) / idle / Ry(-theta)
  probe circuit, optionally with CNOTs running on a neighbouring link to
  generate crosstalk (Figure 4(a,b,d,e) and Figure 16(a-c)).
* :func:`single_qubit_idling_study` — fidelity of the probe vs theta, with and
  without DD (Figure 4(c,f)).
* :func:`full_device_characterization` — sweep every (idle qubit, CNOT link)
  combination of a device (224 on Guadalupe, 700 on Toronto) and record the
  idle qubit's fidelity with and without DD (Figure 4(g,h), Figure 5).
* :func:`calibration_drift_study` — the same probe across calibration cycles
  (Figure 6).
* :func:`pulse_type_study` — XY4 vs IBMQ-DD vs free evolution as the idle time
  grows (Figure 16(d)).

All probes execute through the unified execution core: the executor's
compile cache means the free / XY4 / IBMQ-DD runs of one probe circuit share
a single :class:`~repro.hardware.program.CompiledNoisyProgram` (the schedule,
event template and idle-window variants are built once per probe, not once
per run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..dd.insertion import DDAssignment
from ..hardware.backend import Backend
from ..hardware.execution import NoisyExecutor

__all__ = [
    "CharacterizationRecord",
    "idle_characterization_circuit",
    "idle_qubit_fidelity",
    "single_qubit_idling_study",
    "full_device_characterization",
    "calibration_drift_study",
    "pulse_type_study",
    "DEFAULT_THETAS",
]

#: The five initial states used throughout Section 3 (theta in [0, pi]).
DEFAULT_THETAS: Tuple[float, ...] = (
    0.0,
    math.pi / 4,
    math.pi / 2,
    3 * math.pi / 4,
    math.pi,
)


@dataclass(frozen=True)
class CharacterizationRecord:
    """One probe measurement: an (idle qubit, link, theta, DD) combination."""

    qubit: int
    link: Optional[Tuple[int, int]]
    theta: float
    idle_ns: float
    dd_sequence: Optional[str]
    fidelity: float


def idle_characterization_circuit(
    backend: Backend,
    idle_qubit: int,
    theta: float,
    idle_ns: float,
    active_link: Optional[Tuple[int, int]] = None,
) -> QuantumCircuit:
    """Build the Ry(theta) / idle / Ry(-theta) probe circuit.

    When ``active_link`` is given, CNOTs are executed back-to-back on that
    link for the whole idle period (the crosstalk source of Figure 4(d,e));
    otherwise the qubit evolves freely for ``idle_ns`` nanoseconds.
    """
    if active_link is not None and idle_qubit in active_link:
        raise ValueError("the idle qubit cannot be part of the active link")
    circuit = QuantumCircuit(backend.num_qubits, name="idle-probe")
    involved = [idle_qubit] + (list(active_link) if active_link else [])
    circuit.ry(theta, idle_qubit)
    circuit.barrier(*involved)
    if active_link is not None:
        duration = backend.calibration.cnot_duration(*active_link)
        repetitions = max(1, int(round(idle_ns / duration)))
        circuit.h(active_link[0])
        for _ in range(repetitions):
            circuit.cx(active_link[0], active_link[1])
    else:
        circuit.delay(idle_ns, active_qubit_placeholder(backend, idle_qubit))
    circuit.barrier(*involved)
    circuit.ry(-theta, idle_qubit)
    circuit.measure(idle_qubit)
    return circuit


def active_qubit_placeholder(backend: Backend, idle_qubit: int) -> int:
    """A qubit used to hold an explicit delay opposite the idle qubit.

    The probe needs *some* scheduled activity so the idle qubit's window has a
    well-defined span; a delay instruction on any other qubit does the job
    without adding noise.
    """
    for candidate in range(backend.num_qubits):
        if candidate != idle_qubit:
            return candidate
    raise ValueError("backend needs at least two qubits")


def idle_qubit_fidelity(
    executor: NoisyExecutor,
    circuit: QuantumCircuit,
    idle_qubit: int,
    dd_sequence: Optional[str] = None,
    shots: int = 2048,
) -> float:
    """Probability of reading '0' on the probe qubit (the paper's fidelity)."""
    assignment = (
        DDAssignment.all([idle_qubit]) if dd_sequence is not None else DDAssignment.none()
    )
    result = executor.run(
        circuit,
        dd_assignment=assignment,
        dd_sequence=dd_sequence or "xy4",
        shots=shots,
        output_qubits=[idle_qubit],
        # Characterization is a measurement context: stay on the exact dense
        # engines (today's ry probes never qualify for the stabilizer fast
        # path anyway, but a future Clifford probe must not silently switch).
        engine="auto_dense",
    )
    return result.probabilities.get("0", 0.0)


def single_qubit_idling_study(
    backend: Backend,
    idle_qubit: int = 0,
    active_link: Optional[Tuple[int, int]] = None,
    idle_ns: float = 1200.0,
    thetas: Sequence[float] = DEFAULT_THETAS,
    dd_sequence: str = "xy4",
    shots: int = 2048,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Fidelity of one idle qubit vs theta, with and without DD (Figure 4(c,f))."""
    executor = NoisyExecutor(backend, seed=seed)
    records = []
    for theta in thetas:
        circuit = idle_characterization_circuit(
            backend, idle_qubit, theta, idle_ns, active_link
        )
        free = idle_qubit_fidelity(executor, circuit, idle_qubit, None, shots)
        with_dd = idle_qubit_fidelity(executor, circuit, idle_qubit, dd_sequence, shots)
        records.append({"theta": theta, "free": free, "dd": with_dd})
    return records


def full_device_characterization(
    backend: Backend,
    idle_ns: float = 8000.0,
    thetas: Sequence[float] = DEFAULT_THETAS,
    dd_sequence: str = "xy4",
    shots: int = 1024,
    max_combinations: Optional[int] = None,
    seed: int = 0,
) -> List[CharacterizationRecord]:
    """Probe every (idle qubit, link) combination with and without DD.

    Returns two records (free / DD) per combination and theta.  The Figure 4
    (g,h) histograms are the fidelity distributions of the two groups, and the
    Figure 5 histogram is the ratio DD / free per combination.  This is the
    heaviest characterisation sweep (700 combinations on Toronto); as the
    ``characterization`` task kind its result is stored, so re-plotting
    Figures 4/5 costs one read.
    """
    executor = NoisyExecutor(backend, seed=seed)
    combinations = backend.device.qubit_link_combinations()
    if max_combinations is not None:
        rng = np.random.default_rng(seed)
        indices = rng.choice(
            len(combinations),
            size=min(max_combinations, len(combinations)),
            replace=False,
        )
        combinations = [combinations[i] for i in sorted(indices)]
    records: List[CharacterizationRecord] = []
    for qubit, link in combinations:
        for theta in thetas:
            circuit = idle_characterization_circuit(backend, qubit, theta, idle_ns, link)
            free = idle_qubit_fidelity(executor, circuit, qubit, None, shots)
            with_dd = idle_qubit_fidelity(executor, circuit, qubit, dd_sequence, shots)
            records.append(
                CharacterizationRecord(qubit, link, theta, idle_ns, None, free)
            )
            records.append(
                CharacterizationRecord(qubit, link, theta, idle_ns, dd_sequence, with_dd)
            )
    return records


def relative_dd_fidelity(records: Sequence[CharacterizationRecord]) -> List[float]:
    """Per (qubit, link, theta) ratio of DD fidelity to free-evolution fidelity."""
    free: Dict[Tuple, float] = {}
    with_dd: Dict[Tuple, float] = {}
    for record in records:
        key = (record.qubit, record.link, round(record.theta, 6))
        if record.dd_sequence is None:
            free[key] = record.fidelity
        else:
            with_dd[key] = record.fidelity
    ratios = []
    for key, base in free.items():
        if key in with_dd and base > 0:
            ratios.append(with_dd[key] / base)
    return ratios


def calibration_drift_study(
    device_name: str,
    idle_qubit: int,
    link: Tuple[int, int],
    cycles: Sequence[int] = (0, 1),
    idle_ns: float = 2400.0,
    thetas: Sequence[float] = DEFAULT_THETAS,
    dd_sequence: str = "xy4",
    shots: int = 2048,
    seed: int = 0,
) -> Dict[int, List[Dict[str, float]]]:
    """Relative DD fidelity of one qubit/link across calibration cycles (Figure 6)."""
    results: Dict[int, List[Dict[str, float]]] = {}
    for cycle in cycles:
        backend = Backend.from_name(device_name, cycle=cycle)
        executor = NoisyExecutor(backend, seed=seed)
        rows = []
        for theta in thetas:
            circuit = idle_characterization_circuit(
                backend, idle_qubit, theta, idle_ns, link
            )
            free = idle_qubit_fidelity(executor, circuit, idle_qubit, None, shots)
            with_dd = idle_qubit_fidelity(
                executor, circuit, idle_qubit, dd_sequence, shots
            )
            rows.append(
                {
                    "theta": theta,
                    "free": free,
                    "dd": with_dd,
                    "relative": with_dd / free if free > 0 else float("nan"),
                }
            )
        results[cycle] = rows
    return results


def pulse_type_study(
    backend: Backend,
    idle_qubit: int = 0,
    active_link: Optional[Tuple[int, int]] = None,
    idle_times_ns: Sequence[float] = (1000.0, 2000.0, 4000.0, 8000.0, 16000.0),
    theta: float = math.pi / 2,
    shots: int = 2048,
    seed: int = 0,
    max_probe_qubits: Optional[int] = 8,
) -> List[Dict[str, float]]:
    """Mean fidelity of free / XY4 / IBMQ-DD evolution vs idle time (Figure 16(d)).

    The paper averages over every qubit-link combination; ``max_probe_qubits``
    bounds how many idle qubits are averaged to keep runtimes practical (the
    full sweep is available by passing ``None``).
    """
    executor = NoisyExecutor(backend, seed=seed)
    combos = backend.device.qubit_link_combinations()
    if active_link is not None:
        combos = [(q, l) for q, l in combos if l == tuple(sorted(active_link))]
    probes: List[Tuple[int, Tuple[int, int]]] = []
    seen_qubits = set()
    for qubit, link in combos:
        if max_probe_qubits is not None and len(seen_qubits) >= max_probe_qubits:
            break
        if qubit in seen_qubits:
            continue
        seen_qubits.add(qubit)
        probes.append((qubit, link))

    rows = []
    for idle_ns in idle_times_ns:
        free_values, xy4_values, ibmq_values = [], [], []
        for qubit, link in probes:
            circuit = idle_characterization_circuit(backend, qubit, theta, idle_ns, link)
            free_values.append(idle_qubit_fidelity(executor, circuit, qubit, None, shots))
            xy4_values.append(idle_qubit_fidelity(executor, circuit, qubit, "xy4", shots))
            ibmq_values.append(
                idle_qubit_fidelity(executor, circuit, qubit, "ibmq_dd", shots)
            )
        rows.append(
            {
                "idle_ns": idle_ns,
                "free": float(np.mean(free_values)),
                "xy4": float(np.mean(xy4_values)),
                "ibmq_dd": float(np.mean(ibmq_values)),
            }
        )
    return rows

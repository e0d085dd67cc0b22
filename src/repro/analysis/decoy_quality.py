"""Decoy-circuit validation: Figure 8, Figure 9 and Table 2.

* Figure 8 — fidelity of a benchmark under **every** DD combination (2^N),
  showing that neither "none" nor "all" is the best choice.
* Figure 9 — fidelity of the 4-qubit Adder and of its Clifford decoy across
  all 16 DD combinations; the two curves should be strongly rank-correlated.
* Table 2 — Spearman correlation between decoy and input-circuit fidelity for
  CDC vs SDC decoys on several benchmarks, plus the SDC simulation time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.decoy import make_decoy
from ..core.evaluation import compiled_ideal_distribution
from ..core.search import all_assignments
from ..hardware.backend import Backend
from ..hardware.execution import NoisyExecutor
from ..metrics.correlation import spearman_correlation
from ..metrics.fidelity import fidelity
from ..transpiler.transpile import CompiledProgram, transpile
from ..workloads.suite import get_benchmark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.store import ExperimentStore

__all__ = [
    "dd_combination_sweep",
    "decoy_correlation_study",
    "decoy_quality_table",
]


def dd_combination_sweep(
    compiled: CompiledProgram,
    executor: NoisyExecutor,
    dd_sequence: str = "xy4",
    shots: int = 2048,
    ideal: Optional[Dict[str, float]] = None,
    circuit=None,
    max_qubits: int = 8,
    engine: str = "auto",
) -> List[Tuple[str, float]]:
    """Fidelity of a circuit for every DD combination over its program qubits.

    Returns ``(bitstring, fidelity)`` pairs ordered by the combination index
    (``"000..0"`` first, ``"111..1"`` last) — the x-axis of Figure 8/9.
    ``circuit`` overrides the executed circuit (used to sweep a decoy with the
    program's schedule); ``ideal`` overrides the reference distribution.

    All 2^N combinations execute as one shared-program batch: the schedule is
    compiled once and, for Clifford targets (decoy sweeps), ``engine="auto"``
    resolves to the stabilizer fast path.  The jobs are unseeded, so each
    combination draws its seed from the executor's stream, in order, and a
    seeded executor yields a reproducible sweep.
    """
    qubits = sorted(compiled.gst.active_qubits())
    if len(qubits) > max_qubits:
        raise ValueError(
            f"{len(qubits)} program qubits would need {2 ** len(qubits)} evaluations;"
            " raise max_qubits explicitly if that is intended"
        )
    target_circuit = circuit if circuit is not None else compiled.physical_circuit
    gst = executor.backend.schedule(target_circuit)
    reference = ideal if ideal is not None else compiled_ideal_distribution(compiled)
    assignments = all_assignments(qubits)
    results = executor.run_assignments(
        target_circuit,
        assignments,
        dd_sequence=dd_sequence,
        shots=shots,
        output_qubits=compiled.output_qubits,
        gst=gst,
        engine=engine,
    )
    return [
        (assignment.to_bitstring(qubits), fidelity(reference, result.probabilities))
        for assignment, result in zip(assignments, results)
    ]


@dataclass
class DecoyCorrelation:
    """Correlation between a benchmark's fidelity trend and its decoy's."""

    benchmark: str
    backend: str
    decoy_kind: str
    correlation: float
    decoy_sim_time_s: float
    actual_trend: List[float]
    decoy_trend: List[float]
    bitstrings: List[str]


def decoy_correlation_study(
    benchmark: str,
    backend: Backend,
    decoy_kind: str = "cdc",
    dd_sequence: str = "xy4",
    shots: int = 2048,
    seed: int = 0,
    max_qubits: int = 6,
    store: Optional["ExperimentStore"] = None,
) -> DecoyCorrelation:
    """Figure 9 / Table 2: sweep DD combinations on a benchmark and its decoy.

    With a ``store``, the full 2·2^N-job study (benchmark sweep + decoy sweep)
    is keyed by the calibration content and budget knobs and replayed from
    disk on subsequent calls.  ``decoy_sim_time_s`` is then the *recorded*
    simulation time of the original run — the quantity Table 2 reports.
    """
    if store is not None:
        from ..store import calibration_fingerprint, task_key
        from ..store.records import (
            decode_decoy_correlation,
            encode_decoy_correlation,
            read_through,
        )

        key = task_key(
            "decoy_correlation",
            {
                "calibration": calibration_fingerprint(backend.calibration),
                "benchmark": benchmark,
                "decoy_kind": decoy_kind,
                "dd_sequence": dd_sequence,
                "shots": int(shots),
                "seed": int(seed),
                "max_qubits": int(max_qubits),
            },
        )
        return read_through(
            store,
            key,
            lambda: decoy_correlation_study(
                benchmark, backend, decoy_kind=decoy_kind, dd_sequence=dd_sequence,
                shots=shots, seed=seed, max_qubits=max_qubits, store=None,
            ),
            encode=encode_decoy_correlation,
            decode=decode_decoy_correlation,
        )
    # One executor: the benchmark sweep and the decoy sweep each compile
    # their program once and keep it cached across the 2^N jobs.
    executor = NoisyExecutor(backend, seed=seed)
    circuit = get_benchmark(benchmark).build()
    compiled = transpile(circuit, backend)

    actual = dd_combination_sweep(
        compiled,
        executor,
        dd_sequence=dd_sequence,
        shots=shots,
        max_qubits=max_qubits,
        # The benchmark's own sweep is the measured ground truth of the
        # correlation: keep it on the exact dense engines even for Clifford
        # benchmarks.  The decoy sweep below stays on "auto" — scoring a
        # Clifford decoy is exactly what the stabilizer fast path is for.
        engine="auto_dense",
    )

    start = time.perf_counter()
    decoy = make_decoy(compiled.physical_circuit, kind=decoy_kind)
    decoy_ideal = decoy.ideal_distribution(compiled.output_qubits)
    sim_time = time.perf_counter() - start

    decoy_rows = dd_combination_sweep(
        compiled,
        executor,
        dd_sequence=dd_sequence,
        shots=shots,
        ideal=decoy_ideal,
        circuit=decoy.circuit,
        max_qubits=max_qubits,
    )

    bitstrings = [bits for bits, _ in actual]
    actual_trend = [value for _, value in actual]
    decoy_trend = [value for _, value in decoy_rows]
    return DecoyCorrelation(
        benchmark=benchmark,
        backend=backend.name,
        decoy_kind=decoy_kind,
        correlation=spearman_correlation(actual_trend, decoy_trend),
        decoy_sim_time_s=sim_time,
        actual_trend=actual_trend,
        decoy_trend=decoy_trend,
        bitstrings=bitstrings,
    )


def decoy_quality_table(
    entries: Sequence[Tuple[str, str]] = (
        ("ADDER-4", "ibmq_rome"),
        ("QFT-6", "ibmq_paris"),
        ("QAOA-8A", "ibmq_paris"),
    ),
    shots: int = 1024,
    seed: int = 0,
    max_qubits: int = 8,
    store: Optional["ExperimentStore"] = None,
) -> List[Dict[str, object]]:
    """Table 2: CDC vs SDC correlation (and SDC simulation time) per benchmark."""
    rows: List[Dict[str, object]] = []
    for benchmark, device in entries:
        backend = Backend.from_name(device)
        cdc = decoy_correlation_study(
            benchmark, backend, decoy_kind="cdc", shots=shots, seed=seed,
            max_qubits=max_qubits, store=store,
        )
        sdc = decoy_correlation_study(
            benchmark, backend, decoy_kind="sdc", shots=shots, seed=seed,
            max_qubits=max_qubits, store=store,
        )
        rows.append(
            {
                "benchmark": benchmark,
                "platform": device,
                "cdc_correlation": cdc.correlation,
                "sdc_correlation": sdc.correlation,
                "sdc_sim_time_s": sdc.decoy_sim_time_s,
            }
        )
    return rows

"""Hardware-scaling study: the evaluation pipeline across device sizes.

The paper stops at the 27-qubit Falcon generation; this driver runs workloads
across the whole heavy-hex family (Falcon-27, Hummingbird-65, Eagle-127 and
parametric extrapolations) and reports Table-3-style device characteristics
next to the compiled-program and end-to-end evaluation metrics at each scale:

* static device axis — qubit/link counts and the calibration averages that
  Table 3 reports (CNOT error, readout error, T1/T2);
* transpiler axis — gate count, depth, SWAP count, idle time and latency of
  the workload compiled onto each device, plus the transpile wall time (the
  quantity the memoized distance matrix is about);
* execution axis — the engine the auto policy selects for the routed active
  space, the active-qubit count, and the noisy fidelity of an end-to-end run.

The default benchmark axis pairs the fixed ``QFT-6A`` (whose transpile
metrics are comparable across devices) with a **device-proportional mirror
workload** ``MIRROR:half@7`` — the literal size token ``half`` resolves, per
device, to half the device's qubits — so the active space finally *grows*
with the lattice.  Mirror points run on the stabilizer execution path
(:mod:`repro.simulators.engines`): the target bitstring is known
analytically, the sampled success probability is verified against it, and
the engine's exact ``flip_free_probability`` provides a success floor that
stays meaningful when the sampled probability underflows the trajectory
resolution (at 127 qubits an unprotected mirror run succeeds with
probability ~1e-20: the honest headline of scaling without error
correction).

One record per (device, benchmark); :func:`hardware_scaling_study` sweeps a
family, and each of its points is the ``hardware_scaling`` task kind
(``repro run`` / ``repro sweep``), stored under its task key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..core.evaluation import compiled_ideal_distribution
from ..core.ideal import PROGRAM_TIERS, support_distribution, tier_method
from ..hardware.backend import Backend
from ..metrics.fidelity import fidelity, success_probability
from ..transpiler.transpile import transpile
from ..workloads.suite import get_benchmark

__all__ = [
    "DEFAULT_SCALING_BENCHMARKS",
    "HEAVY_HEX_FAMILY",
    "HardwareScalingRecord",
    "device_proportional_benchmark",
    "hardware_scaling_point",
    "hardware_scaling_study",
]

#: The default device axis: the three IBM heavy-hex generations.
HEAVY_HEX_FAMILY = ("ibmq_toronto", "ibm_brooklyn", "ibm_washington")

#: Default benchmark axis: fixed-size transpile metrics + a device-
#: proportional mirror verification workload (``half`` = num_qubits // 2).
DEFAULT_SCALING_BENCHMARKS = ("QFT-6A", "MIRROR:half@7")

#: Size token that scales with the device under study.
_DEVICE_SIZE_TOKEN = "half"


def device_proportional_benchmark(name: str, backend: Backend) -> str:
    """Resolve the ``half`` size token of a parametric name against a device.

    ``MIRROR:half@7`` on a 127-qubit lattice becomes ``MIRROR:63@7``; names
    without the token pass through unchanged.  Only the scaling study speaks
    this token — the workload resolver itself takes concrete integer sizes,
    so a resolved name always names a concrete circuit.
    """
    family, sep, rest = name.partition(":")
    if not sep:
        return name
    head, at, tail = rest.partition("@")
    if head.lower() != _DEVICE_SIZE_TOKEN:
        return name
    size = max(2, backend.num_qubits // 2)
    return f"{family}:{size}{at}{tail}"


@dataclass(frozen=True)
class HardwareScalingRecord:
    """One device-scale point of the scaling study.

    Two wall-clock buckets time the point, and they are the only fields that
    vary between runs of the same point: ``transpile_s`` covers building the
    workload circuit and transpiling it onto the device; ``evaluate_s``
    covers everything after that up to the ideal output: the executor, the
    noisy-program compile, the engine run and the ideal distribution.
    Neither covers building the device or assembling this record.
    """

    device: str
    num_qubits: int
    num_links: int
    avg_cnot_error_pct: float
    avg_measurement_error_pct: float
    t1_us: float
    t2_us: float
    benchmark: str
    program_qubits: int
    gate_count: int
    circuit_depth: int
    num_swaps: int
    avg_idle_time_us: float
    latency_us: float
    num_active_qubits: int
    engine: str
    fidelity: float
    success_probability: float
    transpile_s: float
    evaluate_s: float
    #: Mirror verification: the analytically known target bitstring, whether
    #: the compiled program's exact ideal distribution matched it, and the
    #: engine-computed exact probability of a completely error-free run
    #: (``None`` on dense engines, which have no such closed form, and for
    #: non-deterministic ideal supports too large to average exactly).
    mirror_target: str = ""
    mirror_verified: bool = False
    flip_free_probability: Optional[float] = None


def hardware_scaling_point(
    backend: Backend,
    benchmark: str = "MIRROR:half@7",
    shots: int = 2048,
    trajectories: int = 60,
    seed: int = 7,
    engine: Optional[str] = None,
) -> HardwareScalingRecord:
    """Transpile + execute one workload on one backend and measure everything.

    ``benchmark`` may carry the device-proportional ``half`` size token.  The
    default engine is the workload's ``BenchmarkSpec.default_engine``: mirror
    circuits always ride the stabilizer path (``stabilizer`` spectra would
    also work at small widths, but ``stabilizer_frames`` keeps the per-point
    metrics — including the exact flip-free probability — uniform across the
    device axis), while everything else is a measurement context and stays
    on ``"auto_dense"`` (where the executor's memory budget steers large
    active spaces to the trajectory engine).
    """
    from ..hardware.execution import NoisyExecutor

    benchmark = device_proportional_benchmark(str(benchmark), backend)
    spec = get_benchmark(benchmark)
    if engine is None:
        engine = spec.default_engine

    calibration = backend.calibration

    start = time.perf_counter()
    compiled = transpile(spec.build(), backend)
    transpile_s = time.perf_counter() - start

    start = time.perf_counter()
    executor = NoisyExecutor(backend, seed=seed, trajectories=trajectories)
    # Picking the tier first fails a circuit no tier covers before any
    # engine runs; the tableau tier's support is read after the run, which
    # has computed it if a Clifford engine ran.
    tableau = tier_method(compiled.physical_circuit, PROGRAM_TIERS) == "tableau"
    result = executor.run(
        compiled.physical_circuit,
        shots=shots,
        output_qubits=compiled.output_qubits,
        gst=compiled.gst,
        engine=engine,
        seed=seed,
    )
    ideal = (
        _tableau_ideal(executor, compiled) if tableau else compiled_ideal_distribution(compiled)
    )
    evaluate_s = time.perf_counter() - start

    target, verified = spec.verify(ideal)
    flip_free = result.metadata.get("flip_free_probability")

    return HardwareScalingRecord(
        device=backend.name,
        num_qubits=backend.num_qubits,
        num_links=len(backend.edges),
        avg_cnot_error_pct=100.0 * calibration.average_cnot_error(),
        avg_measurement_error_pct=100.0 * calibration.average_measurement_error(),
        t1_us=calibration.average_t1_us(),
        t2_us=calibration.average_t2_us(),
        benchmark=spec.name,
        program_qubits=spec.num_qubits,
        gate_count=compiled.gate_count(),
        circuit_depth=compiled.depth(),
        num_swaps=compiled.num_swaps,
        avg_idle_time_us=compiled.average_idle_time_us(),
        latency_us=compiled.latency_us(),
        num_active_qubits=result.num_active_qubits,
        engine=result.engine,
        fidelity=fidelity(ideal, result.probabilities),
        success_probability=success_probability(ideal, result.probabilities),
        transpile_s=transpile_s,
        evaluate_s=evaluate_s,
        mirror_target=target,
        mirror_verified=verified,
        flip_free_probability=None if flip_free is None else float(flip_free),
    )


def _tableau_ideal(executor, compiled) -> Dict[str, float]:
    """The point's tableau-tier ideal from its noisy program's memoized support.

    The program's active qubits are the circuit's but for any that only a
    barrier touches, and those read 0 on both paths.
    """
    program = executor.compile(compiled.physical_circuit, compiled.gst)
    base, basis = program.ideal_support()
    return support_distribution(base, basis, program.active, compiled.output_qubits)


def hardware_scaling_study(
    device_names: Sequence[str] = HEAVY_HEX_FAMILY,
    benchmark: Union[str, Sequence[str]] = DEFAULT_SCALING_BENCHMARKS,
    cycle: int = 0,
    shots: int = 2048,
    trajectories: int = 60,
    seed: int = 7,
    engine: Optional[str] = None,
) -> List[HardwareScalingRecord]:
    """One scaling record per (device, benchmark), smallest device first.

    ``benchmark`` is one name or a sequence of names; device-proportional
    ``half`` tokens are resolved per device, so the default axis runs a
    fixed QFT-6A *and* a mirror workload sized to half of every lattice.
    Each point is one ``hardware_scaling`` task, which is how a sweep stores
    it.
    """
    benchmarks = (benchmark,) if isinstance(benchmark, str) else tuple(benchmark)
    records: List[HardwareScalingRecord] = []
    for name in device_names:
        backend = Backend.from_name(str(name), cycle=int(cycle))
        for requested in benchmarks:
            records.append(
                hardware_scaling_point(
                    backend,
                    benchmark=str(requested),
                    shots=shots,
                    trajectories=trajectories,
                    seed=seed,
                    engine=engine,
                )
            )
    records.sort(key=lambda r: (r.num_qubits, r.device, r.benchmark))
    return records

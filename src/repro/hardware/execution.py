"""Noisy execution of scheduled circuits under a DD assignment.

The :class:`NoisyExecutor` is the reproduction's stand-in for submitting a job
to an IBMQ machine.  It combines:

* the Gate Sequence Table (timing / idle windows) of the compiled circuit,
* the gate-level noise model (depolarizing gate errors, readout confusion),
* the idle-window noise model (T1/T2, crosstalk-amplified quasi-static
  dephasing, coherent ZZ phase, DD refocusing and DD pulse cost),

and produces measurement counts / output probability distributions.

It is the one executor.  ADAPT's decoy scoring, the Runtime-Best oracle, the
final per-policy runs and served requests all execute a set of jobs over one
compiled program, so :meth:`NoisyExecutor.run_batch` compiles the circuit
once into a :class:`~repro.hardware.program.CompiledNoisyProgram` (through a
keyed per-executor compile cache) and runs every job through the engine
registry of :mod:`repro.simulators.engines`.  :meth:`NoisyExecutor.run` is a
batch of one, which makes the ``run`` vs ``run_batch`` equivalence contract
of ``docs/architecture.md`` true by construction.

Engines (see :func:`repro.simulators.engines.select_engine` for the shared
``"auto"`` policy):

* ``"density_matrix"`` — exact mixed-state evolution; the default for up to
  :data:`~repro.simulators.engines.DM_QUBIT_LIMIT` active qubits (10).
* ``"trajectories"`` — Monte-Carlo unravelling on statevectors, taking over
  beyond that limit.
* ``"stabilizer"`` — the Clifford fast path, auto-selected for Clifford-only
  programs (decoy scoring, exhaustive-DD sweeps): stabilizer-tableau ideal
  output plus Pauli-twirled noise, with no dense state at all.
* ``"stabilizer_frames"`` — the same Pauli-twirled model sampled as sparse
  Pauli frames, for Clifford programs too wide for any dense state.

Every engine simulates only the *active* qubits (those touched by a gate or a
measurement), so mapping a 7-qubit program onto a 27-qubit device does not
cost 2^27 amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..core.gst import GateSequenceTable
from ..dd.insertion import DDAssignment
from ..obs import Counters
from ..simulators.engines import (
    EngineJob,
    SparseDistribution,
    choose_branch,
    get_engine,
    select_engine,
)
from ..simulators.statevector import SimulationError
from .backend import Backend
from .program import CompiledNoisyProgram, ProgramCache, process_cache_stats

__all__ = [
    "BatchJob",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "RESULT_MEMO_BYTES",
    "ExecutionResult",
    "NoisyExecutor",
    "execute_program_jobs",
    "job_streams",
    "job_sample_rng",
    "choose_branch",
]

#: The default active-space memory budget (256 MiB).  Engine selection folds
#: the budget in (:func:`repro.simulators.engines.select_engine`), so it is
#: result-determining: task keys do not name it, and changing it must bump
#: :data:`repro.store.keys.SCHEMA_VERSION`.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024

#: What one compiled program's result memo keeps (4 MiB): a 10-qubit vector
#: is 8 KiB, so an exhaustive 2^8 DD sweep fits; a vector that would pass
#: the bound is used and not kept.
RESULT_MEMO_BYTES = 4 * 1024 * 1024


def job_streams(
    seed: int, trajectories: int
) -> Tuple[List[np.random.Generator], np.random.Generator]:
    """Derive the RNG streams of one seeded execution job.

    Every execution draws from streams produced by this function, which is
    what makes seeded results independent of how jobs are batched:
    one independent child stream per trajectory (consumed in event order
    within the trajectory) plus one stream for sampling the final
    measurement counts.
    """
    root = np.random.SeedSequence(seed)
    children = root.spawn(trajectories + 1)
    streams = [np.random.default_rng(child) for child in children[:trajectories]]
    return streams, np.random.default_rng(children[-1])


def job_sample_rng(seed: int, trajectories: int) -> np.random.Generator:
    """Only the sampling stream of :func:`job_streams`.

    Lets engines that never touch the per-trajectory streams (density matrix,
    stabilizer) skip instantiating ``trajectories`` generators while drawing
    counts from the exact same child stream.  ``SeedSequence.spawn`` gives
    the root's child ``i`` the spawn key ``(i,)``, so that last child is
    built directly instead of spawning all ``trajectories + 1``.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trajectories,)))


@dataclass(frozen=True)
class BatchJob:
    """One execution of a compiled program under a DD candidate.

    The candidate is the set of qubits ``dd_assignment`` protects under the
    one protocol ``dd_sequence``.  ``seed`` drives the deterministic stream
    protocol of :func:`job_streams`; jobs with explicit seeds produce
    identical results regardless of batch composition.
    """

    dd_assignment: Optional[DDAssignment] = None
    dd_sequence: str = "xy4"
    shots: int = 4096
    seed: Optional[int] = None
    output_qubits: Optional[Tuple[int, ...]] = None
    engine: str = "auto"


@dataclass
class ExecutionResult:
    """Outcome of one noisy execution."""

    counts: Dict[str, int]
    probabilities: Dict[str, float]
    shots: int
    output_qubits: Tuple[int, ...]
    engine: str
    total_duration_ns: float
    dd_pulse_count: int
    num_active_qubits: int
    metadata: Dict[str, object] = field(default_factory=dict)

    def probability_of(self, bitstring: str) -> float:
        return self.probabilities.get(bitstring, 0.0)

    def most_probable(self) -> str:
        return max(self.probabilities, key=self.probabilities.get)


# ---------------------------------------------------------------------------
# The shared execution pipeline
# ---------------------------------------------------------------------------


def _marginalize(probs: np.ndarray, active: List[int], outputs: List[int]) -> np.ndarray:
    n = len(active)
    index_of = {q: i for i, q in enumerate(active)}
    tensor = probs.reshape((2,) * n)
    keep = [index_of[q] for q in outputs]
    drop = [axis for axis in range(n) if axis not in keep]
    if drop:
        tensor = tensor.sum(axis=tuple(drop))
    # After summation the remaining axes are the kept axes in ascending
    # order of their original position; permute them into output order.
    kept_sorted = sorted(keep)
    perm = [kept_sorted.index(axis) for axis in keep]
    tensor = np.transpose(tensor, perm)
    flat = tensor.reshape(-1)
    return flat / flat.sum()


def _sample(
    probs: np.ndarray, shots: int, num_bits: int, rng: np.random.Generator
) -> Dict[str, int]:
    samples = rng.multinomial(shots, probs / probs.sum())
    return {
        format(idx, f"0{num_bits}b"): int(count)
        for idx, count in enumerate(samples)
        if count > 0
    }


def _finalize(
    backend: Backend,
    program: CompiledNoisyProgram,
    job: BatchJob,
    variants: List[Optional[str]],
    active_probs: "np.ndarray | SparseDistribution",
    engine: str,
    sample_rng: np.random.Generator,
) -> ExecutionResult:
    outputs = program.resolve_outputs(job.output_qubits)
    extra_metadata: Dict[str, object] = {}
    if isinstance(active_probs, SparseDistribution):
        # Sparse engines resolve outputs and fold readout errors in per
        # frame (a dense 2^n vector never exists at their scale); only the
        # count sampling remains, drawn from the same sampling stream.
        if not active_probs.readout_applied:
            raise SimulationError(
                "sparse engine results must arrive with readout errors"
                " already applied; the pipeline has no sparse readout pass"
            )
        if active_probs.num_bits != len(outputs):
            raise SimulationError(
                f"sparse engine returned {active_probs.num_bits}-bit outcomes"
                f" for a {len(outputs)}-bit output register — the engine must"
                " honor EngineJob.outputs"
            )
        extra_metadata.update(active_probs.metadata)
        items = sorted(active_probs.probabilities.items())
        weights = np.array([p for _, p in items], dtype=float)
        weights = weights / weights.sum()
        sampled = sample_rng.multinomial(job.shots, weights)
        counts = {
            bits: int(c) for (bits, _), c in zip(items, sampled) if c > 0
        }
        prob_dict = {
            bits: float(p)
            for (bits, _), p in zip(items, weights)
            if p > 1e-12
        }
    else:
        probs = _marginalize(active_probs, program.active, outputs)
        probs = backend.gate_noise.apply_readout_error(probs, outputs)
        counts = _sample(probs, job.shots, len(outputs), sample_rng)
        prob_dict = {
            format(i, f"0{len(outputs)}b"): float(p)
            for i, p in enumerate(probs)
            if p > 1e-12
        }
    trains = [program.train_for(v, widx) for widx, v in enumerate(variants) if v is not None]
    return ExecutionResult(
        counts=counts,
        probabilities=prob_dict,
        shots=job.shots,
        output_qubits=tuple(outputs),
        engine=engine,
        total_duration_ns=program.gst.total_duration,
        dd_pulse_count=sum(train.num_pulses for train in trains),
        num_active_qubits=len(program.active),
        metadata={
            "device": backend.name,
            "calibration_cycle": backend.calibration.cycle,
            "dd_sequence": program.sequence(job.dd_sequence).name,
            "protected_windows": len(trains),
            "seed": job.seed,
            **extra_metadata,
        },
    )


#: A result memo key: ``(engine name, tuple(variants))``.
_MemoKey = Tuple[str, Tuple[Optional[str], ...]]


class _ResultMemo:
    """One compiled program's stream-free engine vectors, by :data:`_MemoKey`
    and bounded by :data:`RESULT_MEMO_BYTES`."""

    def __init__(self) -> None:
        self.vectors: Dict[_MemoKey, np.ndarray] = {}
        self.nbytes = 0

    def keep(self, key: _MemoKey, vector: np.ndarray) -> None:
        vector.flags.writeable = False
        if self.nbytes + vector.nbytes <= RESULT_MEMO_BYTES:
            self.vectors[key] = vector
            self.nbytes += vector.nbytes


def execute_program_jobs(
    backend: Backend,
    program: CompiledNoisyProgram,
    jobs: Sequence[BatchJob],
    *,
    trajectories: int,
    memory_budget_bytes: Optional[int] = None,
) -> List[ExecutionResult]:
    """Execute jobs against a compiled program through the engine registry.

    This is the ONE execution pipeline: jobs are grouped by resolved engine,
    split into sub-batches bounded by ``memory_budget_bytes`` (when given),
    run, and finalized (marginalize -> readout error -> sample counts).
    Every job must carry its seed (:meth:`NoisyExecutor.run_batch` draws the
    missing ones).  Results are returned in job order.

    A stream-free engine's vector depends only on the program and the job's
    variants (:attr:`~repro.simulators.engines.ExecutionEngine.needs_streams`),
    so the program memoizes it in ``engine_cache["results"]``: the engine
    runs once per distinct variant vector the program has not produced yet
    (in first-occurrence order; the memory budget splits only those), and
    every job, hit or miss, samples its counts from its own seed's stream.
    """
    if not jobs:
        return []
    if any(job.seed is None for job in jobs):
        raise ValueError("execute_program_jobs needs a seed on every job")
    # Fail fast on unresolvable output qubits and unknown DD protocols before
    # any engine work: a bad job must not cost a whole sub-batch of simulation
    # first.  The resolved active-space positions ride along to the engines so
    # sparse engines can produce output-space results directly.
    output_positions = [
        tuple(
            program.index_of[q] for q in program.resolve_outputs(job.output_qubits)
        )
        for job in jobs
    ]
    variants = [
        program.assignment_variants(job.dd_assignment, job.dd_sequence) for job in jobs
    ]
    n = len(program.active)
    groups: Dict[str, List[int]] = {}
    for j, job in enumerate(jobs):
        name = select_engine(
            job.engine,
            n,
            clifford=program.is_clifford,
            memory_budget_bytes=memory_budget_bytes,
            trajectories=trajectories,
        )
        groups.setdefault(name, []).append(j)

    results: List[Optional[ExecutionResult]] = [None] * len(jobs)

    def finish(name: str, members: List[int], vector: np.ndarray) -> None:
        # Stream-free engines never touch the per-trajectory streams;
        # materialize only the sampling stream (same child either way).
        for j in members:
            sample_rng = job_sample_rng(jobs[j].seed, trajectories)
            results[j] = _finalize(
                backend, program, jobs[j], variants[j], vector, name, sample_rng
            )

    for name, indices in groups.items():
        engine = get_engine(name)
        if not engine.supports(program):
            raise SimulationError(
                f"engine '{name}' cannot execute this compiled program"
                f" (Clifford-only: {program.is_clifford});"
                " choose another engine or 'auto'"
            )
        if engine.needs_streams:
            todo = indices
        else:
            memo = program.engine_cache.setdefault("results", _ResultMemo())
            # Jobs by memo key, in first-occurrence order.
            sharing: Dict[_MemoKey, List[int]] = {}
            for j in indices:
                sharing.setdefault((name, tuple(variants[j])), []).append(j)
            todo = []
            for key, members in sharing.items():
                vector = memo.vectors.get(key)
                if vector is None:
                    todo.append(members[0])
                else:
                    finish(name, members, vector)
        chunk = max(1, len(todo))
        if memory_budget_bytes is not None:
            state_bytes = engine.state_bytes(n, trajectories)
            chunk = max(1, memory_budget_bytes // max(1, state_bytes))
        for start in range(0, len(todo), chunk):
            subset = todo[start : start + chunk]
            if engine.needs_streams:
                pairs = [job_streams(jobs[j].seed, trajectories) for j in subset]
                engine_jobs = [
                    EngineJob(
                        variants=variants[j], streams=pair[0], outputs=output_positions[j]
                    )
                    for j, pair in zip(subset, pairs)
                ]
                probs = engine.run(program, engine_jobs, trajectories)
                for j, job_probs, pair in zip(subset, probs, pairs):
                    results[j] = _finalize(
                        backend, program, jobs[j], variants[j], job_probs, name, pair[1]
                    )
            else:
                engine_jobs = [
                    EngineJob(variants=variants[j], outputs=output_positions[j])
                    for j in subset
                ]
                for j, vector in zip(subset, engine.run(program, engine_jobs, trajectories)):
                    key = (name, tuple(variants[j]))
                    memo.keep(key, vector)
                    finish(name, sharing[key], vector)
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class NoisyExecutor:
    """Simulates scheduled circuits under the backend's noise model.

    Every execution goes through :meth:`run_batch`: the circuit is compiled
    once (with a per-executor :class:`ProgramCache` of its default capacity,
    keyed by the circuit and schedule, so repeated runs stop rebuilding the
    GST events) and all jobs run against the shared compiled program.  Cache
    efficacy is observable end to end: compile-cache hit/miss counters live
    on :attr:`stats`, and :meth:`cache_stats` folds in the process-level
    gate/operator caches.

    Args:
        backend: device model + calibration.
        seed: entropy for jobs submitted without a seed (see
            :meth:`draw_job_seed`).
        trajectories: Monte-Carlo trajectories per job for the trajectory
            engine.
        memory_budget_bytes: cap on the stacked batch state; larger batches
            are transparently split into sub-batches, and the budget also
            steers auto engine selection (an active space whose preferred
            engine cannot fit degrades to a cheaper one).
    """

    def __init__(
        self,
        backend: Backend,
        seed: Optional[int] = None,
        trajectories: int = 120,
        memory_budget_bytes: Optional[int] = DEFAULT_MEMORY_BUDGET_BYTES,
    ) -> None:
        self.backend = backend
        self.trajectories = int(trajectories)
        self.memory_budget_bytes = (
            None if memory_budget_bytes is None else int(memory_budget_bytes)
        )
        self._rng = np.random.default_rng(seed)
        self._program_cache = ProgramCache(backend)
        self.stats = Counters("program_compiles", "program_hits", "jobs_run")

    # -- compile cache -------------------------------------------------

    @property
    def _programs(self) -> Dict[object, CompiledNoisyProgram]:
        """The live compile-cache entries (exposed for tests/diagnostics)."""
        return self._program_cache.entries

    def cache_stats(self) -> Dict[str, int]:
        """Aggregated cache-efficacy counters for this executor.

        Per-executor ``stats`` (``program_compiles`` / ``program_hits`` /
        ``jobs_run``) only tell part of the story: the process-level caches
        (gate matrices, resolved noise operators) are shared by *every*
        executor in the process, so their sizes are folded in here under
        ``process_*`` keys, along with the live compile-cache entry count.
        They describe the calling process only: ``repro ls --stats`` runs in
        a fresh process and reports the experiment store's cumulative
        hit/miss counters instead.
        """
        merged = self.stats.snapshot()
        merged["cached_programs"] = len(self._program_cache.entries)
        for name, value in process_cache_stats().items():
            merged[f"process_{name}"] = value
        return merged

    def compile(
        self, circuit: QuantumCircuit, gst: Optional[GateSequenceTable] = None
    ) -> CompiledNoisyProgram:
        """Build (or fetch from the keyed cache) the compiled program.

        The cache is keyed by the circuit/schedule objects, so repeated
        executions over the same compiled program — every analysis driver's
        pattern, and the neighbourhood sweeps of ADAPT's localized search —
        share one compiled template.
        """
        program, hit = self._program_cache.get(circuit, gst)
        self.stats.add("program_hits" if hit else "program_compiles")
        return program

    # -- execution -----------------------------------------------------

    def draw_job_seed(self) -> int:
        """Draw one job seed from the executor's stream.

        This is the unseeded-job convention: :meth:`run_batch` draws one seed
        per unseeded job, in job order, so a seeded executor reproduces a
        sequence of unseeded batches or ``run()`` calls.
        """
        return int(self._rng.integers(0, 2 ** 63))

    def run_batch(
        self,
        circuit: QuantumCircuit,
        jobs: Sequence[BatchJob],
        gst: Optional[GateSequenceTable] = None,
    ) -> List[ExecutionResult]:
        """Execute every job against the shared compiled program.

        Results are returned in job order.  A job without a seed draws one
        from the executor's stream, in job order.  Jobs are grouped by engine
        and split into sub-batches bounded by the memory budget; seeded
        results do not depend on that grouping.
        """
        if not jobs:
            return []
        program = self.compile(circuit, gst)
        jobs = [
            job if job.seed is not None else replace(job, seed=self.draw_job_seed())
            for job in jobs
        ]
        results = execute_program_jobs(
            self.backend,
            program,
            jobs,
            trajectories=self.trajectories,
            memory_budget_bytes=self.memory_budget_bytes,
        )
        self.stats.add("jobs_run", len(jobs))
        return results

    def run_assignments(
        self,
        circuit: QuantumCircuit,
        assignments: Sequence[DDAssignment],
        *,
        dd_sequence: str = "xy4",
        shots: int = 4096,
        output_qubits: Optional[Sequence[int]] = None,
        gst: Optional[GateSequenceTable] = None,
        seeds: Optional[Sequence[Optional[int]]] = None,
        engine: str = "auto",
    ) -> List[ExecutionResult]:
        """One job per DD assignment, run as a single batch."""
        if seeds is None:
            seeds = [None] * len(assignments)
        if len(seeds) != len(assignments):
            raise ValueError("seeds must match assignments one-to-one")
        outputs = None if output_qubits is None else tuple(int(q) for q in output_qubits)
        jobs = [
            BatchJob(
                dd_assignment=assignment,
                dd_sequence=dd_sequence,
                shots=shots,
                seed=seed,
                output_qubits=outputs,
                engine=engine,
            )
            for assignment, seed in zip(assignments, seeds)
        ]
        return self.run_batch(circuit, jobs, gst=gst)

    def run(
        self,
        circuit: QuantumCircuit,
        dd_assignment: Optional[DDAssignment] = None,
        dd_sequence: str = "xy4",
        shots: int = 4096,
        output_qubits: Optional[Sequence[int]] = None,
        gst: Optional[GateSequenceTable] = None,
        engine: str = "auto",
        seed: Optional[int] = None,
    ) -> ExecutionResult:
        """Execute a circuit under noise (a batch of one).

        Args:
            circuit: compiled circuit on physical qubits (measurements mark
                the read-out qubits).
            dd_assignment: qubits whose idle windows receive DD; ``None``
                means no DD.
            dd_sequence: the DD protocol protecting those windows.
            output_qubits: physical qubits defining the output bit order
                (defaults to the measured qubits in ascending order).
            engine: ``"auto"``, ``"auto_dense"`` or a registered engine name
                (:func:`repro.simulators.engines.available_engines`).
                ``"auto"`` takes the Pauli-twirled stabilizer fast path for
                Clifford-only programs; measurement contexts that must stay
                on the exact dense engines pass ``"auto_dense"``, as the
                analysis drivers do for every reported fidelity.
            seed: per-job seed enabling the deterministic stream protocol of
                :func:`job_streams`.  A seeded run is reproducible on its own
                (independent of executor state) and equals the
                :meth:`run_batch` result of a job with the same seed.
                Unseeded runs draw a job seed from the executor's own stream,
                so they stay reproducible within a fixed call sequence.
        """
        job = BatchJob(
            dd_assignment=dd_assignment,
            dd_sequence=dd_sequence,
            shots=shots,
            seed=seed,
            output_qubits=None if output_qubits is None else tuple(int(q) for q in output_qubits),
            engine=engine,
        )
        return self.run_batch(circuit, [job], gst=gst)[0]

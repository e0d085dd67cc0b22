"""The ``Request → Schedule → BatchJob`` execution path.

A :class:`RunRequest` is the service's unit of work below the sweep level:
one benchmark on one device/calibration, with a shot budget and a seed.  The
same dataclass backs every entry point —

* ``repro run --kind benchmark_run`` executes one request,
* ``repro sweep`` expands a ``benchmark_run`` sweep into many,
* ``repro serve`` packs requests from many concurrent clients —

and all of them flow through :func:`execute_run_requests`: chunk the shot
budgets (:func:`repro.service.scheduler.chunk_request`), pack same-context
chunks into device-shaped batches (:func:`repro.service.scheduler.pack_chunks`),
execute each batch as one :meth:`NoisyExecutor.run_batch` call over a shared
compiled program, then merge each request's chunks back into one record.
Because every chunk is a fully seeded :class:`BatchJob` and the chunk plan is
a pure function of the request, the merged record is bit-identical no matter
which entry point ran it, how many other requests shared its batches, or how
many chunks landed in which batch.

Execution contexts (:class:`ExecutionContext`: the transpiled program, its
executor and its ideal distribution; the scaling study's points run through
the same class) are cached in a :class:`ContextCache`: a long-lived server
keeps them warm across jobs, which — together with the process-level caches
the executors already share — is where the daemon's throughput over
one-process-per-request CLI invocations comes from.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..obs import Counters
from ..store.keys import fingerprint
from .scheduler import chunk_request, pack_chunks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.backend import Backend
    from ..hardware.execution import ExecutionResult
    from ..store.store import ExperimentStore

__all__ = [
    "DEFAULT_MAX_EXPERIMENTS",
    "DEFAULT_MAX_SHOTS",
    "ContextCache",
    "ExecutionContext",
    "RunOutcome",
    "RunRequest",
    "execute_run_requests",
    "merge_chunk_results",
]

#: Device-shaped batch bounds, mirroring the IBMQ generation the paper
#: targets (75 experiments x 8192 shots per submission).  ``max_shots`` is
#: *result-determining* (it fixes the chunk/seed plan) and therefore lives on
#: the request and in its store key; ``max_experiments`` only shapes batches
#: and is a server/executor knob.
DEFAULT_MAX_EXPERIMENTS = 75
DEFAULT_MAX_SHOTS = 8192

#: The task kind every run request resolves through (registered in
#: :mod:`repro.runtime.tasks`).
RUN_KIND = "benchmark_run"

#: The execution contexts a :class:`ContextCache` keeps warm.
MAX_CONTEXTS = 8


@dataclass(frozen=True)
class RunRequest:
    """One packable execution request (see module docs).

    ``benchmark`` is canonicalised to the resolver's spec name at
    construction, so case-variant spellings share context, key and record.
    ``engine=None`` applies the workload's
    :attr:`~repro.workloads.suite.BenchmarkSpec.default_engine`.
    """

    device: str
    benchmark: str
    cycle: int = 0
    shots: int = 2048
    seed: int = 0
    trajectories: int = 60
    engine: Optional[str] = None
    max_shots: int = DEFAULT_MAX_SHOTS
    tenant: str = "default"
    request_id: str = ""
    #: canonical benchmark name + resolved engine + context key, filled in
    #: __post_init__ (object.__setattr__ because the dataclass is frozen).
    #: ``engine`` itself is left as given — it is a *keyed parameter*, and a
    #: policy-resolved ``None`` must key identically everywhere (CLI, sweep,
    #: server); the engine actually executed is ``resolved_engine``.
    resolved_engine: str = field(default="", compare=False)
    context_key: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        from ..workloads.suite import get_benchmark

        if int(self.shots) <= 0:
            raise ValueError(f"shots must be positive, got {self.shots}")
        if int(self.max_shots) <= 0:
            raise ValueError(f"max_shots must be positive, got {self.max_shots}")
        if int(self.trajectories) <= 0:
            raise ValueError(
                f"trajectories must be positive, got {self.trajectories}"
            )
        if int(self.seed) < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        spec = get_benchmark(str(self.benchmark))
        object.__setattr__(self, "benchmark", spec.name)
        resolved = spec.default_engine if self.engine is None else str(self.engine)
        object.__setattr__(self, "resolved_engine", resolved)
        if not self.request_id:
            object.__setattr__(self, "request_id", uuid.uuid4().hex[:12])
        object.__setattr__(
            self,
            "context_key",
            fingerprint(
                {
                    "device": str(self.device),
                    "cycle": int(self.cycle),
                    "benchmark": self.benchmark,
                    "trajectories": int(self.trajectories),
                }
            ),
        )

    @classmethod
    def from_params(
        cls,
        params: Dict[str, object],
        tenant: str = "default",
        request_id: str = "",
    ) -> "RunRequest":
        """Build a request from ``benchmark_run`` task parameters.

        ``params`` is merged with the kind's defaults first, so a request
        built from sparse CLI/server parameters and one built from fully
        spelled-out parameters are the same request (and share a key).
        """
        from ..runtime.tasks import merged_params

        merged = merged_params(RUN_KIND, params)
        return cls(
            device=str(merged["device"]),
            benchmark=str(merged["benchmark"]),
            cycle=int(merged.get("cycle", 0)),
            shots=int(merged.get("shots", 2048)),
            seed=int(merged.get("seed", 0)),  # "seed" is a sweep axis, not a default
            trajectories=int(merged.get("trajectories", 60)),
            engine=merged.get("engine"),
            max_shots=int(merged.get("max_shots", DEFAULT_MAX_SHOTS)),
            tenant=str(tenant),
            request_id=str(request_id),
        )

    def params(self) -> Dict[str, object]:
        """The ``benchmark_run`` task parameters this request round-trips to."""
        return {
            "device": str(self.device),
            "benchmark": self.benchmark,
            "cycle": int(self.cycle),
            "shots": int(self.shots),
            "seed": int(self.seed),
            "trajectories": int(self.trajectories),
            "engine": self.engine,
            "max_shots": int(self.max_shots),
        }

    @property
    def key(self) -> str:
        """The content-addressed store key (same as ``repro run`` resolves)."""
        from ..runtime.tasks import resolve_task_key

        return resolve_task_key(RUN_KIND, self.params())


class ExecutionContext:
    """One (device, workload) execution point: compile, run and score.

    The scaling study's :func:`~repro.analysis.scaling.hardware_scaling_point`
    and every served or CLI request run through it.  It is built once per
    (backend, benchmark, trajectories) and holds the transpiled program and
    an executor whose program and variant caches stay warm for every batch
    run against it (for a daemon's lifetime, bounded by
    :class:`ContextCache`).

    Building it picks the program's :data:`~repro.core.ideal.PROGRAM_TIERS`
    tier, so a circuit no tier covers fails before any engine runs.  The
    ideal distribution is computed once, on first use: on the tableau tier
    from the noisy program's memoized
    :meth:`~repro.hardware.program.CompiledNoisyProgram.ideal_support` (the
    support the Clifford engines read, so a point runs the tableau once), and
    from :func:`~repro.core.evaluation.compiled_ideal_distribution` otherwise,
    and the workload's :attr:`verification` against it once too.  Its
    executor's compiled program memoizes every exact engine vector it runs
    (:func:`~repro.hardware.execution.execute_program_jobs`), so a warm
    context answers a repeat request on an exact engine by sampling only.
    """

    def __init__(self, backend: "Backend", benchmark: str, trajectories: int) -> None:
        from ..core.ideal import PROGRAM_TIERS, tier_method
        from ..hardware.execution import NoisyExecutor
        from ..transpiler.transpile import transpile
        from ..workloads.suite import get_benchmark

        self.spec = get_benchmark(str(benchmark))
        self.compiled = transpile(self.spec.build(), backend)
        self._tableau = (
            tier_method(self.compiled.physical_circuit, PROGRAM_TIERS) == "tableau"
        )
        self.executor = NoisyExecutor(backend, trajectories=int(trajectories))

    @cached_property
    def ideal(self) -> Dict[str, float]:
        """The compiled program's noise-free output distribution."""
        from ..core.evaluation import compiled_ideal_distribution
        from ..core.ideal import support_distribution

        compiled = self.compiled
        if not self._tableau:
            return compiled_ideal_distribution(compiled)
        program = self.executor.compile(compiled.physical_circuit, compiled.gst)
        return support_distribution(
            *program.ideal_support(), program.active, compiled.output_qubits
        )

    def run(self, jobs: Sequence[Tuple[int, int, str]]) -> List["ExecutionResult"]:
        """Execute seeded ``(shots, seed, engine)`` jobs as one batch."""
        from ..hardware.execution import BatchJob

        batch = [
            BatchJob(
                shots=int(shots),
                seed=int(seed),
                output_qubits=self.compiled.output_qubits,
                engine=engine,
            )
            for shots, seed, engine in jobs
        ]
        return self.executor.run_batch(
            self.compiled.physical_circuit, batch, gst=self.compiled.gst
        )

    @cached_property
    def verification(self) -> Tuple[str, bool]:
        """The workload's ``(target, verified)`` against the ideal (a mirror
        workload rebuilds its circuit for the target, so once per context)."""
        return self.spec.verify(self.ideal)

    def scores(self, probabilities: Dict[str, float]) -> Dict[str, object]:
        """An output distribution's fidelity and success probability against
        the ideal, and the workload's mirror target and verification."""
        from ..metrics.fidelity import fidelity, success_probability

        ideal = self.ideal
        target, verified = self.verification
        return {
            "fidelity": float(fidelity(ideal, probabilities)),
            "success_probability": float(success_probability(ideal, probabilities)),
            "mirror_target": target,
            "mirror_verified": bool(verified),
        }


class ContextCache:
    """A bounded LRU of :class:`ExecutionContext` keyed by context key, with
    its build/hit ``stats`` and the ``packing`` totals of the rounds that
    :func:`execute_run_requests` ran through it."""

    def __init__(self) -> None:
        self._contexts: Dict[str, ExecutionContext] = {}
        self.stats = Counters("builds", "hits")
        self.packing = Counters(
            "rounds", "requests", "chunks", "batches", "contexts", "total_shots"
        )

    def get(self, request: RunRequest) -> ExecutionContext:
        from ..hardware.backend import Backend

        context = self._contexts.get(request.context_key)
        if context is not None:
            self._contexts[request.context_key] = self._contexts.pop(
                request.context_key
            )  # LRU refresh
            self.stats.add("hits")
            return context
        context = ExecutionContext(
            Backend.from_name(str(request.device), cycle=int(request.cycle)),
            request.benchmark,
            request.trajectories,
        )
        self.stats.add("builds")
        self._contexts[request.context_key] = context
        while len(self._contexts) > MAX_CONTEXTS:
            self._contexts.pop(next(iter(self._contexts)))
        return context


def merge_chunk_results(
    request: RunRequest,
    context: ExecutionContext,
    results: Sequence[Tuple[int, "ExecutionResult"]],
) -> Tuple[dict, Dict[str, object]]:
    """Fold one request's chunk results into its ``(meta, arrays)`` record.

    Counts are summed exactly; probabilities are the shot-weighted average of
    the chunk distributions, accumulated in chunk order over sorted keys so
    the float result is bit-identical across processes and packings.  No
    wall-clock enters the record, so independent executions of one request
    produce byte-identical payloads.
    """
    ordered = sorted(results, key=lambda item: item[0])
    indices = [index for index, _ in ordered]
    if indices != list(range(len(indices))):
        raise ValueError(
            f"request {request.request_id} expected contiguous chunks, got {indices}"
        )
    total_shots = sum(result.shots for _, result in ordered)
    if total_shots != int(request.shots):
        raise ValueError(
            f"request {request.request_id} merged {total_shots} shots,"
            f" expected {request.shots}"
        )
    counts: Dict[str, int] = {}
    probabilities: Dict[str, float] = {}
    for _, result in ordered:
        for bits in sorted(result.counts):
            counts[bits] = counts.get(bits, 0) + int(result.counts[bits])
        weight = result.shots / total_shots
        for bits in sorted(result.probabilities):
            probabilities[bits] = (
                probabilities.get(bits, 0.0) + weight * float(result.probabilities[bits])
            )
    first = ordered[0][1]
    flip_free = first.metadata.get("flip_free_probability")
    meta = {
        "kind": "benchmark_run",
        "request": request.params(),
        "counts": counts,
        "probabilities": probabilities,
        "shots": int(total_shots),
        "chunks": len(ordered),
        "engine": first.engine,
        "num_active_qubits": int(first.num_active_qubits),
        "total_duration_ns": float(first.total_duration_ns),
        "dd_pulse_count": int(first.dd_pulse_count),
        **context.scores(probabilities),
        "flip_free_probability": None if flip_free is None else float(flip_free),
    }
    return meta, {}


@dataclass
class RunOutcome:
    """What the service reports back per request."""

    request_id: str
    status: str  # "executed" | "cached"
    key: str
    meta: dict

    def headline(self) -> Dict[str, object]:
        return {
            "benchmark": self.meta.get("request", {}).get("benchmark"),
            "fidelity": self.meta.get("fidelity"),
            "success_probability": self.meta.get("success_probability"),
        }


def execute_run_requests(
    requests: Sequence[RunRequest],
    store: Optional["ExperimentStore"] = None,
    contexts: Optional[ContextCache] = None,
    max_experiments: int = DEFAULT_MAX_EXPERIMENTS,
    recompute: bool = False,
) -> Dict[str, RunOutcome]:
    """Run many requests through the packer (see module docs).

    With a ``store``, every request is first probed by key (a hit settles it
    as ``"cached"`` without executing — identical resubmissions to a warm
    server are pure store reads) and every executed record is checkpointed.
    Returns one :class:`RunOutcome` per request id; the round's packing
    totals are added to ``contexts.packing``.
    """
    contexts = contexts if contexts is not None else ContextCache()
    outcomes: Dict[str, RunOutcome] = {}
    to_run: List[RunRequest] = []
    for request in requests:
        key = request.key
        if store is not None and not recompute and store.contains(key):
            record = store.get(key)
            meta = {} if record is None else dict(record.meta)
            outcomes[request.request_id] = RunOutcome(
                request.request_id, "cached", key, meta
            )
            continue
        to_run.append(request)
    chunks = [chunk for request in to_run for chunk in chunk_request(request)]
    batches = pack_chunks(chunks, max_experiments)
    per_request: Dict[str, List[Tuple[int, "ExecutionResult"]]] = {
        request.request_id: [] for request in to_run
    }
    # One lookup per context per round: the merge scores against the context
    # that ran the batches, even if the round holds more than MAX_CONTEXTS.
    round_contexts: Dict[str, ExecutionContext] = {}
    for batch in batches:
        context = round_contexts.get(batch.context_key)
        if context is None:
            context = contexts.get(batch.chunks[0].request)
            round_contexts[batch.context_key] = context
        jobs = [(c.shots, c.seed, c.request.resolved_engine) for c in batch.chunks]
        for chunk, result in zip(batch.chunks, context.run(jobs)):
            per_request[chunk.request_id].append((chunk.chunk_index, result))
    for request in to_run:
        context = round_contexts[request.context_key]
        meta, arrays = merge_chunk_results(
            request, context, per_request[request.request_id]
        )
        key = request.key
        if store is not None:
            store.put(key, meta, arrays)
        outcomes[request.request_id] = RunOutcome(
            request.request_id, "executed", key, meta
        )
    packing = contexts.packing
    packing.add("rounds")
    packing.add("requests", len(to_run))
    packing.add("chunks", len(chunks))
    packing.add("batches", len(batches))
    packing.add("contexts", len({batch.context_key for batch in batches}))
    packing.add("total_shots", sum(batch.total_shots for batch in batches))
    return outcomes

"""The shot/experiment packing scheduler.

Hardware back-ends accept *batches*: up to ``max_experiments`` circuit
executions per submission, each bounded by ``max_shots`` shots.  The service
receives heterogeneous requests — many tenants, many shot budgets, several
compile contexts — and this module turns them into device-shaped batches,
following the ``ScheduleItem``/``Scheduler`` packing idiom (one open item
per context; requests appended until the item is full; overflow shots carry
into the next item):

1. every request is **chunked** by :func:`chunk_request`: a request whose
   ``shots`` exceed its ``max_shots`` splits into ceil(shots/max_shots)
   chunks, each an independently seeded execution of at most ``max_shots``
   shots (the per-chunk seed plan is a pure function of the request — see
   :func:`chunk_seeds` — which is what keeps packed results bit-identical
   to a serial run of the same request);
2. chunks are **packed** by :func:`pack_chunks` into :class:`PackedBatch`
   groups: one batch holds at most ``max_experiments`` chunks, all from the
   same *execution context* (same device, calibration cycle, benchmark and
   trajectory budget — i.e. the same compiled program), so each batch maps
   onto a single :meth:`~repro.hardware.execution.NoisyExecutor.run_batch` call
   over one shared :class:`~repro.hardware.program.CompiledNoisyProgram`.

Packing is *result-invariant by construction*: each chunk is a fully seeded
:class:`~repro.hardware.execution.BatchJob`, and the executor contract makes
seeded jobs independent of batch composition.  The packer therefore only
decides how much compile/cache sharing the daemon extracts from concurrent
clients, never what any request computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

__all__ = [
    "PackedBatch",
    "ShotChunk",
    "chunk_request",
    "chunk_seeds",
    "pack_chunks",
    "split_shots",
]


def split_shots(shots: int, max_shots: int) -> List[int]:
    """Split a shot budget into per-execution chunks of at most ``max_shots``.

    All chunks but the last carry exactly ``max_shots`` shots, the last one
    the remainder — so the plan is canonical for a given ``(shots,
    max_shots)`` pair and the total is preserved exactly.
    """
    shots = int(shots)
    max_shots = int(max_shots)
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    if max_shots <= 0:
        raise ValueError(f"max_shots must be positive, got {max_shots}")
    full, rest = divmod(shots, max_shots)
    return [max_shots] * full + ([rest] if rest else [])


def chunk_seeds(seed: int, n_chunks: int) -> List[int]:
    """The deterministic per-chunk seed plan of one request.

    A single-chunk request keeps its own seed, so the common case (shots
    within the device bound) is *the same execution* a plain
    ``NoisyExecutor.run(seed=...)`` would perform.  Multi-chunk requests
    derive one independent child seed per chunk from the request seed; the
    derivation depends only on ``(seed, n_chunks)``, never on what else is
    in the queue or how chunks land in batches.
    """
    n_chunks = int(n_chunks)
    if n_chunks <= 0:
        raise ValueError(f"n_chunks must be positive, got {n_chunks}")
    if n_chunks == 1:
        return [int(seed)]
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    return [int(v) for v in rng.integers(0, 2**63, size=n_chunks)]


@dataclass(frozen=True)
class ShotChunk:
    """One device-shaped execution slice of one request.

    ``request`` is the originating request object (anything exposing
    ``request_id``, ``context_key``, ``shots``, ``max_shots`` and ``seed`` —
    in practice :class:`repro.service.requests.RunRequest`); ``chunk_index``
    orders the slices of one request for deterministic merging.
    """

    request: object
    chunk_index: int
    shots: int
    seed: int

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def context_key(self) -> str:
        return self.request.context_key


def chunk_request(request) -> List[ShotChunk]:
    """Expand one request into its seeded shot chunks (see module docs)."""
    plan = split_shots(request.shots, request.max_shots)
    seeds = chunk_seeds(request.seed, len(plan))
    return [
        ShotChunk(request=request, chunk_index=index, shots=shots, seed=seed)
        for index, (shots, seed) in enumerate(zip(plan, seeds))
    ]


@dataclass
class PackedBatch:
    """One device submission: same-context chunks sharing a compiled program."""

    context_key: str
    max_experiments: int
    chunks: List[ShotChunk]

    @property
    def total_shots(self) -> int:
        return sum(chunk.shots for chunk in self.chunks)

    def has_room(self) -> bool:
        return len(self.chunks) < self.max_experiments

    def add(self, chunk: ShotChunk) -> bool:
        """Append a chunk if the batch has room; ``False`` means *full*."""
        if chunk.context_key != self.context_key:
            raise ValueError(
                "chunk context does not match the batch"
                f" ({chunk.context_key[:12]} != {self.context_key[:12]})"
            )
        if not self.has_room():
            return False
        self.chunks.append(chunk)
        return True


def pack_chunks(
    chunks: Sequence[ShotChunk], max_experiments: int
) -> List[PackedBatch]:
    """Pack chunks into per-context batches of at most ``max_experiments``.

    Arrival order is preserved *within* each context (the queue hands chunks
    over in tenant-fair order, and the packer must not undo that), and one
    open batch is kept per context: a chunk that does not fit closes the
    context's open batch and starts the next — the overflow-splitting walk
    of the ``ScheduleItem`` idiom.  The number of batches is therefore
    ``sum over contexts of ceil(context_chunks / max_experiments)``: any
    time two requests share a context, the batch count drops below the
    request count and the shared compiled program pays for both.
    """
    max_experiments = int(max_experiments)
    if max_experiments <= 0:
        raise ValueError(f"max_experiments must be positive, got {max_experiments}")
    batches: List[PackedBatch] = []
    open_by_context: Dict[str, PackedBatch] = {}
    for chunk in chunks:
        batch = open_by_context.get(chunk.context_key)
        if batch is None or not batch.add(chunk):
            batch = PackedBatch(
                context_key=chunk.context_key,
                max_experiments=max_experiments,
                chunks=[chunk],
            )
            open_by_context[chunk.context_key] = batch
            batches.append(batch)
    return batches


def expected_batches(context_chunk_counts: Sequence[int], max_experiments: int) -> int:
    """The closed-form batch count ``pack_chunks`` produces (used by tests)."""
    return sum(
        math.ceil(count / int(max_experiments)) for count in context_chunk_counts
    )

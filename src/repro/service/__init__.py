"""The persistent multi-tenant sweep service.

This package is the front door the ROADMAP's "millions of users" story
needs: instead of one CLI invocation per sweep (paying process start-up,
compile-cache warm-up and store-handle cost every time), ``repro serve``
hosts a long-lived daemon with an async job queue.  Many clients submit
sweeps and single runs concurrently over a local socket speaking a JSON-line
protocol; per-tenant quotas, priorities and a bounded queue with
reject-with-retry-after backpressure keep one noisy tenant from starving the
rest.

The scheduling core (:mod:`repro.service.scheduler`) is a shot/experiment
packer in the ``ScheduleItem``/``Scheduler`` idiom: heterogeneous
``(circuit, shots)`` requests targeting the same (device, calibration,
program) context are packed into device-shaped batches bounded by
``max_experiments``/``max_shots`` — overflow shots split across batches
under a deterministic per-chunk seed plan — and executed through the
:meth:`~repro.hardware.execution.NoisyExecutor.run_batch` shared-program path,
so process-level caches (compiled programs, distance matrices, noise-mask
tables) amortize across every client of the daemon.

The ``Request → Schedule → BatchJob`` path lives in
:mod:`repro.service.requests` and is shared by every entry point: the
``benchmark_run`` task kind (``repro run`` / ``repro sweep``) executes one
request through exactly the packer the server uses for many, which is what
makes a served result bit-identical to a serial CLI run of the same request.
"""

from .client import ServiceClient, ServiceError, ServiceUnavailable
from .queue import Job, JobQueue, QueueFull, QuotaExceeded, ServiceRejection
from .requests import (
    DEFAULT_MAX_EXPERIMENTS,
    DEFAULT_MAX_SHOTS,
    ContextCache,
    RunRequest,
    execute_run_requests,
)
from .scheduler import PackedBatch, ShotChunk, chunk_request, pack_chunks, split_shots
from .server import SweepService

__all__ = [
    "ContextCache",
    "DEFAULT_MAX_EXPERIMENTS",
    "DEFAULT_MAX_SHOTS",
    "Job",
    "JobQueue",
    "PackedBatch",
    "QueueFull",
    "QuotaExceeded",
    "RunRequest",
    "ServiceClient",
    "ServiceError",
    "ServiceRejection",
    "ServiceUnavailable",
    "ShotChunk",
    "SweepService",
    "chunk_request",
    "execute_run_requests",
    "pack_chunks",
    "split_shots",
]

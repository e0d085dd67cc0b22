"""The ``repro serve`` daemon: a persistent multi-tenant sweep service.

One long-lived process hosts:

* a Unix-domain **socket endpoint** speaking a JSON-line protocol (one
  request object per line; one response line, or a stream of status lines
  for ``watch``) — see :data:`PROTOCOL_OPS` for the op table;
* a bounded multi-tenant **job queue** (:mod:`repro.service.queue`) with
  priorities, per-tenant quotas and reject-with-retry-after backpressure;
* a single **scheduler thread** that drains the queue: concurrently queued
  packable run requests are claimed together in tenant-fair order, packed
  into device-shaped batches (:mod:`repro.service.scheduler`) and executed
  through the shared ``Request → Schedule → BatchJob`` path
  (:mod:`repro.service.requests`); sweep jobs and non-packable task kinds
  run through the same orchestrator/driver code the CLI uses.

Because the process never dies between jobs, every process-level cache —
compiled programs, distance matrices, noise-mask tables, execution contexts
(:class:`~repro.service.requests.ContextCache`) and the store's memory tier —
amortizes across *all* clients and tenants, which is precisely the cost the
one-process-per-invocation CLI pays per request.

Durability: all results land in the experiment store under the same
content-addressed keys the CLI resolves, so a served result is
indistinguishable from (and bit-identical to) a serially computed one, and
an identical resubmission is a pure store read.  Every job's lifecycle is
journaled under ``<store>/jobs/<job_id>.json``; clients read result payloads
through the store by key (the socket only ever carries keys, headlines and
status — never arrays).

Shutdown: ``SIGTERM``/``SIGINT`` (or the ``shutdown`` op) stop admission,
let the in-flight job settle, journal everything and exit 0.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
import uuid
from typing import Dict, List, Optional

from ..lint.annotations import guarded_by
from ..store.store import ExperimentStore
from .queue import Job, JobQueue, ServiceRejection
from .requests import (
    DEFAULT_MAX_EXPERIMENTS,
    DEFAULT_MAX_SHOTS,
    ContextCache,
    RunRequest,
    execute_run_requests,
)

__all__ = ["SweepService", "PROTOCOL_OPS"]

#: The service protocol: op name -> one-line summary (doubles as the
#: dispatch table's contract; ``repro serve --help`` and the docs quote it).
PROTOCOL_OPS = {
    "ping": "liveness probe: pid, uptime, queue counts",
    "submit": "enqueue a run/sweep job (tenant, priority); may reject with retry_after_s",
    "status": "one job's lifecycle + live progress counters",
    "result": "one terminal job's result keys/headlines (read records via the store)",
    "partial": "a running sweep job's streamed partial aggregation",
    "jobs": "list jobs (optionally one tenant's)",
    "cancel": "cancel a queued job / flag a running one",
    "stats": "queue, packer, context-cache and store counters",
    "watch": "stream status lines until the job settles",
    "shutdown": "graceful stop (same path as SIGTERM)",
}

#: Packable task kind (everything else runs unpacked through run_task).
_PACKABLE_KIND = "benchmark_run"

#: Longest request line a handler accepts, newline included; a longer line is
#: answered with ``bad_request`` instead of being buffered whole.
MAX_REQUEST_BYTES = 1 << 20


class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via the socket
        service: "SweepService" = self.server.service  # type: ignore[attr-defined]
        line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
        if not line:
            return
        if len(line) > MAX_REQUEST_BYTES:
            self._send({"ok": False, "error": "bad_request", "message": "request line too long"})
            return
        try:
            payload = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._send({"ok": False, "error": "bad_request", "message": "undecodable request line"})
            return
        if not isinstance(payload, dict):
            self._send({"ok": False, "error": "bad_request", "message": "request must be a JSON object"})
            return
        if str(payload.get("op")) == "watch":
            for snapshot in service.watch(payload):
                try:
                    self._send(snapshot)
                except (BrokenPipeError, ConnectionResetError):
                    return
            return
        self._send(service.handle(payload))

    def _send(self, payload: dict) -> None:  # pragma: no cover - socket I/O
        self.wfile.write(json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n")
        self.wfile.flush()


@guarded_by("_stats_lock", "_pack_totals", "_jobs_executed")
class SweepService:
    """The daemon behind ``repro serve`` (and the in-process test harness).

    The execution counters named above are written by the scheduler thread
    and read by handler threads (the ``stats`` op), so they live behind
    ``_stats_lock``; ``repro lint`` verifies every access statically.

    Args:
        store_spec: store root or ``write:read[:read...]`` federation spec.
        socket_path: Unix socket path to listen on.
        queue_depth: bound on queued jobs (backpressure beyond it).
        tenant_quota: per-tenant bound on queued+running jobs.
        max_experiments: chunks per packed batch (result-invariant).
        max_shots: default per-request chunk bound applied to submissions
            that do not spell it out.  **Result-determining** (it fixes the
            chunk/seed plan and is part of every request's store key), so
            serial comparisons must use the same value.
        max_contexts: execution contexts kept warm.
        sweep_workers: worker processes for sweep jobs (1 = inline).
        poll_interval_s: scheduler idle poll / watch streaming cadence.
    """

    def __init__(
        self,
        store_spec: Optional[str],
        socket_path: str,
        queue_depth: int = 64,
        tenant_quota: int = 16,
        max_experiments: int = DEFAULT_MAX_EXPERIMENTS,
        max_shots: int = DEFAULT_MAX_SHOTS,
        max_contexts: int = 8,
        sweep_workers: int = 1,
        poll_interval_s: float = 0.05,
        progress=None,
    ) -> None:
        if int(max_experiments) <= 0:
            raise ValueError(f"max_experiments must be positive, got {max_experiments}")
        if int(max_shots) <= 0:
            raise ValueError(f"max_shots must be positive, got {max_shots}")
        self.store = ExperimentStore.from_spec(store_spec)
        self.socket_path = str(socket_path)
        self.queue = JobQueue(depth=queue_depth, tenant_quota=tenant_quota)
        self.max_experiments = int(max_experiments)
        self.max_shots = int(max_shots)
        self.sweep_workers = max(1, int(sweep_workers))
        self.poll_interval_s = max(0.01, float(poll_interval_s))
        self.contexts = ContextCache(max_contexts=max_contexts)
        self._progress = progress or (lambda line: None)
        self._started_at = time.time()
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._idle = threading.Event()
        self._idle.set()
        self._server: Optional[_Server] = None
        self._threads: List[threading.Thread] = []
        # Written by the scheduler thread, read by handler threads (`stats`).
        self._stats_lock = threading.Lock()
        self._pack_totals: Dict[str, int] = {}
        self._jobs_executed = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Bind the socket and start the listener + scheduler threads."""
        self._claim_socket_path()
        self._server = _Server(self.socket_path, _Handler)
        self._server.service = self  # type: ignore[attr-defined]
        listener = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": self.poll_interval_s},
            name="repro-serve-listener",
            daemon=True,
        )
        scheduler = threading.Thread(
            target=self._scheduler_loop, name="repro-serve-scheduler", daemon=True
        )
        self._threads = [listener, scheduler]
        for thread in self._threads:
            thread.start()
        self._progress(f"serving on {self.socket_path} (store: {self.store.spec_string()})")

    def _claim_socket_path(self) -> None:
        """Take over the socket path, refusing to evict a live daemon."""
        if not os.path.exists(self.socket_path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(0.25)
            probe.connect(self.socket_path)
        except OSError:
            os.unlink(self.socket_path)  # stale socket of a dead daemon
        else:
            raise RuntimeError(f"another daemon is already serving on {self.socket_path}")
        finally:
            probe.close()

    def serve_forever(self) -> int:
        """Run until SIGTERM/SIGINT or a ``shutdown`` op; returns exit code.

        Installs signal handlers (main thread only) so ``kill -TERM`` drains
        gracefully: stop admission, finish the in-flight job, journal, exit.
        """
        import signal

        def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
            self._progress(f"signal {signum}: shutting down")
            self._stop.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
        self.start()
        try:
            while not self._stop.wait(timeout=self.poll_interval_s):
                pass
        finally:
            self.close()
        return 0

    def close(self) -> None:
        """Stop accepting, let the in-flight job settle, release the socket."""
        self._stop.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        # The scheduler thread exits on the stop flag after settling its job.
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=30.0)
        self._threads = []
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self.store.flush_session_stats()

    # Testing hooks: freeze/unfreeze dispatch so queue states (full, fair
    # ordering) can be asserted deterministically while jobs pile up.
    def pause(self) -> None:
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until the queue is drained and the scheduler is idle."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            counts = self.queue.counts()
            busy = counts.get("queued", 0) + counts.get("running", 0)
            if not busy and self._idle.is_set():
                return True
            time.sleep(self.poll_interval_s)
        return False

    # -- protocol dispatch ---------------------------------------------

    def handle(self, payload: dict) -> dict:
        """Serve one protocol request (thread-safe; called per connection)."""
        op = str(payload.get("op", ""))
        handler = getattr(self, f"_op_{op}", None)
        if op == "watch" or handler is None:
            return {
                "ok": False,
                "error": "unknown_op",
                "message": f"unknown op {op!r}; supported: {sorted(PROTOCOL_OPS)}",
            }
        try:
            return handler(payload)
        except ServiceRejection as exc:
            return exc.to_payload()
        except (ValueError, KeyError) as exc:
            # Validation failures (bad params, unknown kinds/benchmarks)
            # are the client's problem, reported at admission time.
            message = str(exc) if isinstance(exc, ValueError) else str(exc).strip("'\"")
            return {"ok": False, "error": "bad_request", "message": message}
        except Exception as exc:  # noqa: BLE001 - protocol errors must not kill the daemon
            return {"ok": False, "error": "internal", "message": f"{type(exc).__name__}: {exc}"}

    def _op_ping(self, payload: dict) -> dict:
        return {
            "ok": True,
            "pid": os.getpid(),
            "uptime_s": time.time() - self._started_at,
            "queue": self.queue.counts(),
        }

    def _op_submit(self, payload: dict) -> dict:
        job_payload = payload.get("job")
        if not isinstance(job_payload, dict):
            return {"ok": False, "error": "bad_request", "message": "submit needs a 'job' object"}
        tenant = str(payload.get("tenant", "default"))
        priority = int(payload.get("priority", 0))
        if self._stop.is_set():
            return {"ok": False, "error": "shutting_down", "message": "daemon is draining"}
        normalized = self._normalize_job(job_payload)
        job = Job(
            job_id=uuid.uuid4().hex[:12],
            tenant=tenant,
            priority=priority,
            payload=normalized,
        )
        self.queue.submit(job)  # ServiceRejection propagates to handle()
        self._journal(job)
        return {"ok": True, "job_id": job.job_id}

    def _normalize_job(self, job_payload: dict) -> dict:
        """Validate a submission and classify it for the dispatcher.

        ``run`` jobs carry one packable request; any other registered task
        kind becomes a ``task`` job (executed unpacked); ``sweep`` jobs carry
        declarative sweep specs.  Validation errors raise ``ValueError`` and
        surface as structured ``bad_request`` responses *at submit time* —
        a malformed job never enters the queue.
        """
        from ..runtime.spec import SweepSpec
        from ..runtime.tasks import available_task_kinds, required_params

        job_type = str(job_payload.get("type", "run"))
        if job_type == "sweep":
            sweeps = job_payload.get("sweeps")
            if not isinstance(sweeps, list) or not sweeps:
                raise ValueError("sweep job needs a non-empty 'sweeps' list")
            specs = [SweepSpec.from_dict(dict(entry)) for entry in sweeps]  # validates
            return {
                "type": "sweep",
                "name": str(job_payload.get("name") or specs[0].name),
                "sweeps": [spec.to_dict() for spec in specs],
            }
        if job_type != "run":
            raise ValueError(f"unknown job type {job_type!r} (expected 'run' or 'sweep')")
        kind = str(job_payload.get("kind", _PACKABLE_KIND))
        if kind not in available_task_kinds():
            raise ValueError(
                f"unknown task kind {kind!r}; registered: {available_task_kinds()}"
            )
        params = dict(job_payload.get("params") or {})
        missing = [name for name in required_params(kind) if name not in params]
        if missing:
            raise ValueError(f"task kind {kind!r} is missing params {missing}")
        if kind == _PACKABLE_KIND:
            # The daemon's device-shaped default; explicit values win.  This
            # is result-determining, hence folded in *before* key resolution.
            params.setdefault("max_shots", self.max_shots)
            request = RunRequest.from_params(params)  # validates device/benchmark
            return {"type": "run", "kind": kind, "params": dict(params), "key": request.key}
        from ..runtime.tasks import resolve_task_key

        return {
            "type": "task",
            "kind": kind,
            "params": params,
            "key": resolve_task_key(kind, params),
        }

    def _op_status(self, payload: dict) -> dict:
        job = self._job_or_error(payload)
        if isinstance(job, dict):
            return job
        return {"ok": True, "job": job.to_payload(include_result=False)}

    def _op_result(self, payload: dict) -> dict:
        job = self._job_or_error(payload)
        if isinstance(job, dict):
            return job
        return {"ok": True, "job": job.to_payload(include_result=True)}

    def _op_partial(self, payload: dict) -> dict:
        """Streamed partial aggregation of a (possibly running) sweep job."""
        from ..runtime.orchestrator import partial_summary

        job = self._job_or_error(payload)
        if isinstance(job, dict):
            return job
        tasks_map = job.result.get("tasks")
        if not isinstance(tasks_map, dict):
            return {
                "ok": False,
                "error": "not_a_sweep",
                "message": f"job {job.job_id} has no task map (type {job.job_type!r})",
            }
        return {"ok": True, "job_id": job.job_id, "summary": partial_summary(self.store, tasks_map)}

    def _op_jobs(self, payload: dict) -> dict:
        tenant = payload.get("tenant")
        jobs = self.queue.jobs(None if tenant is None else str(tenant))
        return {"ok": True, "jobs": [job.to_payload(include_result=False) for job in jobs]}

    def _op_cancel(self, payload: dict) -> dict:
        job = self.queue.cancel(str(payload.get("job_id", "")))
        if job is None:
            return {"ok": False, "error": "unknown_job", "message": "no such job"}
        self._journal(job)
        return {"ok": True, "job": job.to_payload(include_result=False)}

    def _op_stats(self, payload: dict) -> dict:
        with self._stats_lock:
            jobs_executed = self._jobs_executed
            packing = dict(self._pack_totals)
        return {
            "ok": True,
            "uptime_s": time.time() - self._started_at,
            "jobs_executed": jobs_executed,
            "queue": {"counts": self.queue.counts(), **self.queue.stats_snapshot()},
            "packing": packing,
            "contexts": dict(self.contexts.stats),
            "store": dict(self.store.stats),
        }

    def _op_shutdown(self, payload: dict) -> dict:
        self._stop.set()
        return {"ok": True, "message": "draining"}

    def watch(self, payload: dict):
        """Yield status snapshots until the job settles (the ``watch`` op)."""
        job_id = str(payload.get("job_id", ""))
        while True:
            job = self.queue.get(job_id)
            if job is None:
                yield {"ok": False, "error": "unknown_job", "message": "no such job"}
                return
            terminal = job.status in ("done", "failed", "cancelled")
            yield {
                "ok": True,
                "job": job.to_payload(include_result=terminal),
                "final": terminal,
            }
            if terminal or self._stop.is_set():
                return
            time.sleep(self.poll_interval_s)

    def _job_or_error(self, payload: dict):
        job = self.queue.get(str(payload.get("job_id", "")))
        if job is None:
            return {"ok": False, "error": "unknown_job", "message": "no such job"}
        return job

    # -- the scheduler thread ------------------------------------------

    def _scheduler_loop(self) -> None:
        while not self._stop.is_set():
            if self._paused.is_set():
                time.sleep(self.poll_interval_s)
                continue
            batch = self.queue.claim_run_batch()
            if batch:
                self._idle.clear()
                try:
                    self._execute_run_jobs(batch)
                finally:
                    self._idle.set()
                continue
            job = self.queue.claim_next()
            if job is None:
                # Block *without claiming*, then re-check the pause flag: a
                # submit that lands while paused must stay queued (the pause
                # hook is what makes queue-state tests deterministic).
                self.queue.wait_for_work(timeout=self.poll_interval_s)
                continue
            self._idle.clear()
            try:
                if job.job_type == "sweep":
                    self._execute_sweep_job(job)
                elif job.job_type == "run":
                    self._execute_run_jobs([job])
                else:
                    self._execute_task_job(job)
            finally:
                self._idle.set()

    def _execute_run_jobs(self, jobs: List[Job]) -> None:
        """One packed round: every concurrently claimed run request together."""
        live: List[Job] = []
        requests: List[RunRequest] = []
        for job in jobs:
            if job.cancel_requested:
                self.queue.settle(job.job_id, "cancelled")
                self._journal(job)
                continue
            live.append(job)
            requests.append(
                RunRequest.from_params(
                    dict(job.payload.get("params") or {}),
                    tenant=job.tenant,
                    request_id=job.job_id,
                )
            )
        if not live:
            return
        try:
            outcomes = execute_run_requests(
                requests,
                store=self.store,
                contexts=self.contexts,
                max_experiments=self.max_experiments,
            )
        except Exception as exc:  # noqa: BLE001 - settle, don't kill the scheduler
            for job in live:
                self.queue.settle(
                    job.job_id, "failed", {"error": f"{type(exc).__name__}: {exc}"}
                )
                self._journal(job)
            return
        stats = execute_run_requests.last_pack_stats
        with self._stats_lock:
            for counter, value in stats.items():
                self._pack_totals[counter] = self._pack_totals.get(counter, 0) + int(value)
            self._pack_totals["rounds"] = self._pack_totals.get("rounds", 0) + 1
            self._jobs_executed += len(live)
        for job in live:
            outcome = outcomes[job.job_id]
            self.queue.settle(
                job.job_id,
                "done",
                {
                    "status": outcome.status,
                    "key": outcome.key,
                    "headline": outcome.headline(),
                    "pack": dict(stats),
                },
            )
            self._progress(f"[{outcome.status:>8}] job {job.job_id} ({job.tenant})")
            self._journal(job)

    def _execute_task_job(self, job: Job) -> None:
        """A non-packable task kind: the ``repro run`` path, warm-process."""
        from ..runtime.tasks import run_task

        if job.cancel_requested:
            self.queue.settle(job.job_id, "cancelled")
            self._journal(job)
            return
        kind = str(job.payload["kind"])
        params = dict(job.payload.get("params") or {})
        key = str(job.payload["key"])
        try:
            if self.store.contains(key):
                status = "cached"
            else:
                meta, arrays = run_task(kind, params, self.store)
                self.store.put(key, meta, arrays)
                status = "executed"
        except Exception as exc:  # noqa: BLE001
            self.queue.settle(job.job_id, "failed", {"error": f"{type(exc).__name__}: {exc}"})
            self._journal(job)
            return
        with self._stats_lock:
            self._jobs_executed += 1
        self.queue.settle(job.job_id, "done", {"status": status, "key": key})
        self._progress(f"[{status:>8}] job {job.job_id} ({kind})")
        self._journal(job)

    def _execute_sweep_job(self, job: Job) -> None:
        """A declarative sweep through the shared orchestrator."""
        from ..runtime.orchestrator import SweepOrchestrator
        from ..runtime.spec import SweepSpec, expand_sweep

        if job.cancel_requested:
            self.queue.settle(job.job_id, "cancelled")
            self._journal(job)
            return
        specs = [SweepSpec.from_dict(dict(entry)) for entry in job.payload["sweeps"]]
        tasks = expand_sweep(specs)
        # Publish the task map up front: `partial` aggregates whatever leaf
        # records exist from the first settle on, streaming mid-sweep results.
        job.result["tasks"] = {t.task_id: {"kind": t.kind, "key": t.key} for t in tasks}
        job.progress.update({"total": len(tasks), "settled": 0})
        settled = [0]

        def progress(line: str) -> None:
            if job.cancel_requested:
                # The orchestrator treats KeyboardInterrupt as a clean
                # interruption: in-flight work settles, the journal is
                # written, completed tasks stay durable in the store.
                raise KeyboardInterrupt
            settled[0] += 1
            job.progress.update({"settled": settled[0], "last": line.strip()})

        orchestrator = SweepOrchestrator(
            self.store, n_workers=self.sweep_workers, progress=progress
        )
        try:
            report = orchestrator.run(tasks, name=str(job.payload["name"]))
        except Exception as exc:  # noqa: BLE001
            self.queue.settle(job.job_id, "failed", {"error": f"{type(exc).__name__}: {exc}"})
            self._journal(job)
            return
        result = {
            "tasks": job.result["tasks"],
            "summary": report.summary_line(),
            "counts": {
                "executed": len(report.executed),
                "cached": len(report.cached),
                "failed": len(report.failed),
                "blocked": len(report.blocked),
                "pending": len(report.pending),
            },
            "interrupted": report.interrupted,
        }
        if report.interrupted and job.cancel_requested:
            self.queue.settle(job.job_id, "cancelled", result)
        elif report.failed:
            self.queue.settle(job.job_id, "failed", result)
        else:
            with self._stats_lock:
                self._jobs_executed += 1
            self.queue.settle(job.job_id, "done", result)
        self._progress(f"[{self.queue.get(job.job_id).status:>8}] job {job.job_id} (sweep)")
        self._journal(job)

    # -- the job journal ------------------------------------------------

    def _journal(self, job: Job) -> None:
        """Checkpoint one job's lifecycle under ``<store>/jobs/``.

        Pure bookkeeping (audit + post-mortem): results are addressed by
        store key, never read back from the journal — a lost journal costs
        nothing but history.
        """
        path = self.store.jobs_dir / f"{job.job_id}.json"
        self.store._atomic_write(
            path,
            json.dumps(job.to_payload(include_result=True), sort_keys=True, indent=1).encode(
                "utf-8"
            ),
        )

"""The resumable, work-stealing sweep orchestrator.

Scheduling model: the expanded task list is a DAG (independent experiment
leaves plus aggregate nodes whose ``deps`` name their inputs).  Scheduling is
**continuous**, not frontier-synchronous: every task whose dependencies are
settled sits in a ready queue, pooled futures are settled in *completion*
order (no head-of-line blocking on a slow sibling), and each settle
immediately enqueues whatever it unblocked.  For each ready task the
orchestrator:

1. looks its content-addressed key up in the store: a hit means the task is
   **skipped** (this is also how resumption works: there is no separate
   resume protocol, a re-run of the same spec simply finds its finished
   prefix in the store — and with federated read roots, possibly someone
   else's finished prefix);
2. otherwise executes it — inline, or fanned out over a ``fork`` worker pool
   (:func:`create_worker_pool`).  Pooled workers
   **checkpoint the result into the store themselves** and return only
   ``(status, key, seconds)`` — result payloads never round-trip through the
   pool pipe.

With ``join=True`` (CLI: ``repro sweep --join``) the orchestrator also
claims each task through the crash-safe lease layer
(:mod:`repro.runtime.leases`) before executing it, so any number of
processes — or machines on a shared filesystem — drain one sweep
concurrently: tasks leased elsewhere are polled in the store and settle as
cache hits when their owner checkpoints them; leases whose owner died are
re-leased after expiry.  The contract throughout is the store's: the same
spec drained by any number of workers, in any order, with any interleaving
of crashes, converges to bit-identical stored artifacts.

Interruption at any point (``KeyboardInterrupt``, a killed worker, a crashed
machine) therefore loses at most the tasks in flight; everything completed is
durable.  A journal under ``<store>/sweeps/`` records the latest status of
every task for ``repro report`` — written on settle batches, throttled to a
minimum interval (a sweep of n tasks no longer rewrites O(n²) journal
bytes), with the final write unconditional.

Determinism: tasks carry explicit seeds in their parameters, so executing
them in a pool, in any order, or across interrupted sessions produces
bit-identical records — asserted end-to-end by
``benchmarks/test_perf_store.py`` and ``benchmarks/test_perf_sweep.py``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..store.keys import fingerprint
from ..store.store import ExperimentStore
from .leases import LeaseManager, worker_identity
from .spec import SweepSpec, TaskSpec, expand_sweep
from .tasks import merged_params, run_task

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.requests import ContextCache

__all__ = ["TaskResult", "SweepReport", "SweepOrchestrator", "partial_summary"]


def create_worker_pool(n_workers: int) -> Optional[ProcessPoolExecutor]:
    """A fork-based process pool for task fan-out, or ``None`` if unavailable.

    Restricted to Linux: forking a process with warm BLAS/Accelerate threads
    is unsafe on macOS, and spawn would not inherit the in-memory backend
    state cheaply.  Elsewhere the orchestrator runs tasks inline (identical
    results, since every task carries its own seeds).
    """
    if sys.platform != "linux":  # pragma: no cover - platform dependent
        return None
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None
    workers = max(1, min(int(n_workers), os.cpu_count() or 1))
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


@dataclass
class TaskResult:
    """Outcome of one task inside one orchestrator run."""

    task_id: str
    kind: str
    key: str
    status: str  # "cached" | "executed" | "failed" | "blocked" | "pending"
    seconds: float = 0.0
    error: Optional[str] = None
    #: the failed upstream task id a "blocked" task is waiting on
    blocked_on: Optional[str] = None


@dataclass
class SweepReport:
    """What one orchestrator run did (not the results themselves — those are
    in the store, addressed by each task's key)."""

    name: str
    sweep_key: str
    tasks: List[TaskResult] = field(default_factory=list)
    interrupted: bool = False
    #: how many times the journal was checkpointed (throttled + final)
    journal_writes: int = 0

    def _by_status(self, status: str) -> List[TaskResult]:
        return [t for t in self.tasks if t.status == status]

    @property
    def executed(self) -> List[TaskResult]:
        return self._by_status("executed")

    @property
    def cached(self) -> List[TaskResult]:
        return self._by_status("cached")

    @property
    def failed(self) -> List[TaskResult]:
        return self._by_status("failed")

    @property
    def blocked(self) -> List[TaskResult]:
        return self._by_status("blocked")

    @property
    def pending(self) -> List[TaskResult]:
        return self._by_status("pending")

    def summary_line(self) -> str:
        line = (
            f"{self.name}: {len(self.executed)} executed,"
            f" {len(self.cached)} cached, {len(self.failed)} failed,"
            f" {len(self.blocked)} blocked, {len(self.pending)} pending"
        )
        upstream = sorted({t.blocked_on for t in self.blocked if t.blocked_on})
        if upstream:
            line += f" (blocked on: {', '.join(upstream)})"
        return line


def _execute_remote(payload):
    """Worker-side task execution (top-level for pickling under fork).

    The worker opens its own (possibly federated) store handle, runs the
    task with a fresh :class:`~repro.service.requests.ContextCache`,
    **checkpoints the record itself** and returns only
    ``(status, key, seconds, error)`` — the parent never decodes, re-encodes
    or re-writes result arrays, and a slow sibling in the same batch cannot
    delay this record becoming durable.
    """
    kind, params, store_spec, key = payload
    store = ExperimentStore.from_spec(store_spec)
    start = time.perf_counter()
    try:
        meta, arrays = run_task(kind, params, store)
    except Exception as exc:  # noqa: BLE001 - report, don't kill the pool
        return ("failed", key, time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
    store.put(key, meta, arrays)
    store.flush_session_stats()
    return ("executed", key, time.perf_counter() - start, None)


def partial_summary(store: ExperimentStore, tasks_map: Dict[str, dict]) -> dict:
    """Aggregate whatever subset of a sweep's leaf records already exists.

    ``tasks_map`` is a journal's ``tasks`` payload (task_id → entry with
    ``kind``/``key``).  The result mirrors a ``sweep_summary`` record but is
    explicitly marked ``partial`` with its leaf coverage — the streamed
    mid-sweep view behind ``repro report --partial``, usable while workers
    are still draining (or after a crash, to see what survived).
    """
    from .tasks import _headline

    entries: Dict[str, dict] = {}
    stored = 0
    total = 0
    for task_id, entry in sorted(tasks_map.items()):
        if entry.get("kind") == "sweep_summary":
            continue
        total += 1
        record = store.get(str(entry.get("key")))
        if record is None:
            continue
        stored += 1
        entries[task_id] = {
            "key": entry.get("key"),
            "kind": record.kind,
            "headline": _headline(record.meta),
        }
    return {
        "kind": "sweep_summary",
        "partial": stored < total,
        "coverage": {"stored": stored, "total": total},
        "tasks": entries,
    }


class SweepOrchestrator:
    """Expands sweep specs, skips stored tasks, runs and checkpoints the rest.

    Args:
        store: the experiment store all results flow through (possibly
            federated; writes, journals and leases live on its write root).
        n_workers: fan ready tasks out over this many ``fork`` worker
            processes (1 = inline).  Workers open their own store handle on
            the same spec; atomic-rename writes keep concurrent writers safe.
        progress: optional callable invoked with one line per settled task
            (the CLI passes ``print``).  Lines appear in **completion**
            order, not submission order.
        join: claim every execution through the lease layer so concurrent
            ``--join`` processes (any host sharing the write root) drain the
            same sweep without duplicating work.
        lease_ttl_s: heartbeat TTL after which a dead worker's leases are
            stolen.
        lease_pack: tasks per claim batch (None = auto: scale with the ready
            set, bounded so joining late still gets a fair share).
        poll_interval_s: store/lease re-check cadence while waiting on tasks
            leased to another worker.
        journal_min_interval_s: minimum seconds between journal rewrites
            (the final write is always unconditional).
        contexts: the :class:`~repro.service.requests.ContextCache` every
            inline task runs in (a daemon passes its warm one); by default
            the orchestrator builds one on its first inline task.  Pooled
            tasks get a fresh one each.
    """

    def __init__(
        self,
        store: ExperimentStore,
        n_workers: int = 1,
        progress: Optional[Callable[[str], None]] = None,
        join: bool = False,
        lease_ttl_s: float = 60.0,
        lease_pack: Optional[int] = None,
        poll_interval_s: float = 0.1,
        journal_min_interval_s: float = 0.5,
        worker_id: Optional[str] = None,
        contexts: Optional["ContextCache"] = None,
    ) -> None:
        self.store = store
        self.n_workers = max(1, int(n_workers))
        self._progress = progress or (lambda line: None)
        self.join = bool(join)
        self.lease_ttl_s = float(lease_ttl_s)
        self.lease_pack = lease_pack
        self.poll_interval_s = max(0.01, float(poll_interval_s))
        self.journal_min_interval_s = max(0.0, float(journal_min_interval_s))
        self.worker_id = worker_id or worker_identity()
        self.contexts = contexts

    # ------------------------------------------------------------------

    def run(
        self,
        spec: "SweepSpec | Sequence[SweepSpec] | Sequence[TaskSpec]",
        name: Optional[str] = None,
        recompute: bool = False,
        max_executions: Optional[int] = None,
    ) -> SweepReport:
        """Run a sweep to completion (or until the execution budget is spent).

        Args:
            spec: a sweep spec, several specs fused into one DAG, or an
                already-expanded task list.
            recompute: execute every task even when its key is stored
                (results are re-written; used to validate determinism).
            max_executions: stop scheduling new *executions* after this many
                (cache hits don't count).  Tasks left behind are reported as
                ``pending`` — this is the hook the interrupt-and-resume tests
                use to simulate a killed sweep deterministically.
        """
        tasks = self._expand(spec)
        name = name or (spec.name if isinstance(spec, SweepSpec) else "sweep")
        sweep_key = fingerprint(
            {"name": name, "tasks": sorted(t.key for t in tasks)}
        )
        report = SweepReport(name=name, sweep_key=sweep_key)
        results: Dict[str, TaskResult] = {
            t.task_id: TaskResult(t.task_id, t.kind, t.key, "pending") for t in tasks
        }
        report.tasks = [results[t.task_id] for t in tasks]

        # DAG bookkeeping for continuous scheduling.
        unsettled: Dict[str, set] = {t.task_id: set(t.deps) for t in tasks}
        dependents: Dict[str, List[TaskSpec]] = {}
        for task in tasks:
            for dep in task.deps:
                dependents.setdefault(dep, []).append(task)
        ready = deque(t for t in tasks if not unsettled[t.task_id])
        deferred: List[TaskSpec] = []  # budget-parked, stays "pending"
        remote: Dict[str, TaskSpec] = {}  # leased by another worker
        in_flight: Dict[object, TaskSpec] = {}
        executions = 0

        leases: Optional[LeaseManager] = None
        if self.join:
            # Leases are keyed by the *content* of the task set (not the
            # sweep name) so joiners agree on the lease directory no matter
            # what --name they passed.
            drain_key = fingerprint({"tasks": sorted(t.key for t in tasks)})
            leases = LeaseManager(
                self.store.leases_dir,
                drain_key,
                worker_id=self.worker_id,
                ttl_s=self.lease_ttl_s,
            )
        pool = None
        if self.n_workers > 1:
            pool = create_worker_pool(self.n_workers)

        last_journal = [float("-inf")]
        # Deterministic crash simulation (recovery tests / CI): claim this
        # many tasks, then die holding the leases — the max_executions-style
        # kill for the work-stealing layer.
        crash_after_claims = int(
            os.environ.get("REPRO_TEST_CRASH_AFTER_CLAIMS", "0") or 0
        )
        claimed_total = 0

        def write_journal(force: bool = False) -> None:
            now = time.monotonic()
            if not force and now - last_journal[0] < self.journal_min_interval_s:
                return
            last_journal[0] = now
            self._write_journal(name, sweep_key, tasks, results)
            report.journal_writes += 1

        def block_dependents(root_id: str) -> None:
            stack = list(dependents.get(root_id, []))
            while stack:
                task = stack.pop()
                result = results[task.task_id]
                if result.status != "pending":
                    continue
                result.status = "blocked"
                result.blocked_on = root_id
                self._progress(f"[ blocked] {task.task_id} (on {root_id})")
                stack.extend(dependents.get(task.task_id, []))

        def settle(
            task: TaskSpec,
            status: str,
            seconds: float = 0.0,
            error: Optional[str] = None,
        ) -> None:
            result = results[task.task_id]
            result.status = status
            result.seconds = seconds
            result.error = error
            suffix = f" ({seconds:.2f}s)" if status == "executed" else ""
            self._progress(f"[{status:>8}] {task.task_id}{suffix}")
            if leases is not None and status in ("executed", "failed"):
                leases.release(task.key)
            if status in ("executed", "cached"):
                for dependent in dependents.get(task.task_id, []):
                    pending_deps = unsettled[dependent.task_id]
                    pending_deps.discard(task.task_id)
                    if not pending_deps and results[dependent.task_id].status == "pending":
                        ready.append(dependent)
            elif status == "failed":
                block_dependents(task.task_id)

        try:
            write_journal(force=True)  # mid-sweep `repro report` sees us now
            while ready or in_flight or remote:
                # -- schedule: drain the ready queue -----------------------
                runnable: List[TaskSpec] = []
                while ready:
                    task = ready.popleft()
                    if results[task.task_id].status != "pending":
                        continue
                    if not recompute and self.store.contains(task.key):
                        settle(task, "cached")
                        continue
                    if (
                        max_executions is not None
                        and executions + len(runnable) >= max_executions
                    ):
                        deferred.append(task)
                        continue
                    runnable.append(task)
                if leases is not None and runnable:
                    if len(in_flight) >= 2 * self.n_workers:
                        # Pool already saturated: claiming more now would
                        # hoard leases other joiners could be draining.
                        ready.extend(runnable)
                        runnable = []
                    else:
                        # Claim one pack per round, requeue the rest: the
                        # share left in `ready` is what a second joiner
                        # steals its next batch from.
                        pack = self._pack_size(len(runnable))
                        ready.extend(runnable[pack:])
                        claimed: List[TaskSpec] = []
                        for task in runnable[:pack]:
                            if not leases.try_claim(task.key, task.task_id):
                                remote[task.task_id] = task
                            elif not recompute and self.store.contains(task.key):
                                # Its owner checkpointed it and released the
                                # lease between our probe above and the claim.
                                leases.release(task.key)
                                settle(task, "cached")
                            else:
                                claimed.append(task)
                        runnable = claimed
                        claimed_total += len(claimed)
                        if crash_after_claims and claimed_total >= crash_after_claims:
                            report.interrupted = True
                            break
                executions += len(runnable)
                if pool is not None:
                    for task in runnable:
                        payload = (
                            task.kind,
                            merged_params(task.kind, task.params),
                            self.store.spec_string(),
                            task.key,
                        )
                        in_flight[pool.submit(_execute_remote, payload)] = task
                else:
                    for task in runnable:
                        self._execute_inline(task, settle)
                # -- wait: settle pooled futures by completion order -------
                if in_flight:
                    completed, _ = wait(
                        list(in_flight),
                        timeout=self.poll_interval_s if remote else None,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in completed:
                        task = in_flight.pop(future)
                        try:
                            status, _key, seconds, error = future.result()
                        except KeyboardInterrupt:
                            raise
                        except Exception as exc:  # noqa: BLE001 - broken pool etc.
                            status, seconds, error = (
                                "failed",
                                0.0,
                                f"{type(exc).__name__}: {exc}",
                            )
                        settle(task, status, seconds=seconds, error=error)
                elif remote:
                    time.sleep(self.poll_interval_s)
                # -- tasks leased elsewhere: poll store, re-lease expired --
                if remote:
                    for task_id, task in list(remote.items()):
                        if self.store.contains(task.key):
                            del remote[task_id]
                            settle(task, "cached")
                        elif leases is not None and leases.is_expired(task.key):
                            # The owner died (or released without a record):
                            # back to ready for a fresh claim attempt.
                            del remote[task_id]
                            ready.append(task)
                write_journal()
        except KeyboardInterrupt:
            report.interrupted = True
        finally:
            if pool is not None:
                # On interrupt, drop everything still queued — a Ctrl-C must
                # not block on a queue's worth of unstarted tasks.  The store
                # already holds every completed result, so the next run
                # resumes exactly where this one stopped.
                pool.shutdown(cancel_futures=report.interrupted)
            if leases is not None:
                leases.close()
            write_journal(force=True)
        return report

    # ------------------------------------------------------------------

    def _pack_size(self, n_candidates: int) -> int:
        """Tasks per claim batch (one batch is claimed per scheduling round):
        enough to keep every pool worker fed, never more than a fair share of
        the remaining work, so a joiner arriving late still finds tasks."""
        if self.lease_pack is not None:
            return max(1, int(self.lease_pack))
        fair = max(1, n_candidates // 2)
        return max(self.n_workers, min(2 * self.n_workers, fair))

    def _expand(self, spec) -> List[TaskSpec]:
        if isinstance(spec, SweepSpec):
            return expand_sweep(spec)
        spec = list(spec)
        if spec and isinstance(spec[0], SweepSpec):
            return expand_sweep(spec)
        return spec

    def _execute_inline(self, task: TaskSpec, settle) -> None:
        if self.contexts is None:
            # Built here, not in __init__: importing the service package is
            # not part of setting a sweep up.
            from ..service.requests import ContextCache

            self.contexts = ContextCache()
        start = time.perf_counter()
        try:
            meta, arrays = run_task(task.kind, task.params, self.store, self.contexts)
        except KeyboardInterrupt:
            raise
        except Exception as exc:  # noqa: BLE001 - a task failure must not kill the sweep
            settle(task, "failed", error=f"{type(exc).__name__}: {exc}")
            return
        self.store.put(task.key, meta, arrays)
        settle(task, "executed", seconds=time.perf_counter() - start)

    # ------------------------------------------------------------------

    def _journal_path(self, name: str, sweep_key: str) -> Path:
        safe_name = "".join(c if c.isalnum() or c in "-_." else "_" for c in name)
        suffix = ""
        if self.join:
            # Joining workers each keep their own journal (same sweep_key);
            # `repro report` merges them by key.  A shared file would be a
            # last-writer-wins race between workers.
            safe_worker = "".join(
                c if c.isalnum() or c in "-_." else "_" for c in self.worker_id
            )
            suffix = f"-{safe_worker}"
        return self.store.sweeps_dir / f"{safe_name}-{sweep_key[:12]}{suffix}.json"

    def _write_journal(
        self,
        name: str,
        sweep_key: str,
        tasks: List[TaskSpec],
        results: Dict[str, TaskResult],
    ) -> None:
        """Checkpoint the sweep's status under ``<store>/sweeps/``.

        The journal is bookkeeping for ``repro report`` — resumption itself
        never reads it (the store's keys are the source of truth), so a lost
        or stale journal can not corrupt a sweep.
        """
        payload = {
            "name": name,
            "sweep_key": sweep_key,
            "worker": self.worker_id,
            "updated_at": time.time(),
            "tasks": {
                t.task_id: {
                    "kind": t.kind,
                    "key": t.key,
                    "status": results[t.task_id].status,
                    "seconds": results[t.task_id].seconds,
                    "error": results[t.task_id].error,
                    "blocked_on": results[t.task_id].blocked_on,
                }
                for t in tasks
            },
        }
        self.store._atomic_write(
            self._journal_path(name, sweep_key),
            json.dumps(payload, sort_keys=True, indent=1).encode("utf-8"),
        )

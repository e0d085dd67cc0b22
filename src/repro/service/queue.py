"""The bounded, multi-tenant job queue behind ``repro serve``.

Jobs are either *run* jobs (one packable :class:`RunRequest`-shaped payload)
or *sweep* jobs (a full declarative sweep spec).  The queue enforces the
service's admission and fairness policy; execution is someone else's problem
(the server's scheduler thread claims jobs and settles them back).

Admission:

* the queue is **bounded** (``depth``): submissions beyond it are rejected
  with a structured :class:`QueueFull` carrying ``retry_after_s`` — clients
  back off and retry instead of piling unbounded work onto the daemon;
* every tenant has a **quota** (``tenant_quota``) on queued + running jobs:
  one chatty tenant hits :class:`QuotaExceeded` while the queue still
  accepts everyone else.

Dispatch order: higher ``priority`` first, and *round-robin across tenants*
within a priority band (FIFO within one tenant), so a tenant that enqueued a
hundred jobs does not starve the tenant that enqueued one.  The rotation
cursor remembers the last tenant served per band and resumes after it.

The queue keeps every job it has seen (``status``, ``result`` and ``jobs``
read them), but admission, dispatch and the counts read only an index of the
live (queued and running) jobs and the per-status totals, so their cost does
not grow with the number of settled jobs.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..lint.annotations import guarded_by, holds_lock
from ..obs import Counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .requests import RunRequest

__all__ = ["Job", "JobQueue", "QueueFull", "QuotaExceeded", "ServiceRejection"]

#: Job lifecycle states.  ``queued → running → done|failed``; ``cancelled``
#: can replace ``queued`` (and, cooperatively, ``running``).
TERMINAL_STATES = ("done", "failed", "cancelled")


class ServiceRejection(Exception):
    """Base of the structured admission errors (wire format: ``to_payload``)."""

    code = "rejected"

    def __init__(self, message: str, retry_after_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"ok": False, "error": self.code, "message": str(self)}
        if self.retry_after_s is not None:
            payload["retry_after_s"] = float(self.retry_after_s)
        return payload


class QueueFull(ServiceRejection):
    code = "queue_full"


class QuotaExceeded(ServiceRejection):
    code = "quota_exceeded"


@dataclass
class Job:
    """One submitted unit of service work."""

    job_id: str
    tenant: str
    priority: int
    payload: Dict[str, object]  # {"type": "run"|"sweep", ...}
    status: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: live progress counters (sweep jobs: settled/total tasks; run jobs:
    #: chunk counts), updated by the scheduler thread
    progress: Dict[str, object] = field(default_factory=dict)
    #: terminal payload: result keys + headlines, or the error
    result: Dict[str, object] = field(default_factory=dict)
    cancel_requested: bool = False
    #: a run job's request, built once at admission and carried to its round
    #: in memory (never journaled); dropped when the job settles
    request: Optional["RunRequest"] = field(default=None, repr=False, compare=False)

    @property
    def job_type(self) -> str:
        return str(self.payload.get("type", "run"))

    def to_payload(self, include_result: bool = True) -> Dict[str, object]:
        payload = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "type": self.job_type,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": dict(self.progress),
            "cancel_requested": self.cancel_requested,
        }
        if include_result:
            payload["result"] = dict(self.result)
        return payload


@guarded_by("_lock", "_jobs", "_order", "_last_served", "_live", "_counts")
class JobQueue:
    """Thread-safe bounded queue with per-tenant quotas and fair dispatch.

    Every attribute named in the ``@guarded_by`` annotation above is shared
    between submitter threads (handler side) and the claimer (scheduler
    thread); ``repro lint`` statically verifies each access sits under
    ``with self._lock:`` or inside a ``@holds_lock`` helper.  The admission
    counters (``stats``) carry their own lock.
    """

    def __init__(self, depth: int = 64, tenant_quota: int = 16) -> None:
        if int(depth) <= 0:
            raise ValueError(f"queue depth must be positive, got {depth}")
        if int(tenant_quota) <= 0:
            raise ValueError(f"tenant quota must be positive, got {tenant_quota}")
        self.depth = int(depth)
        self.tenant_quota = int(tenant_quota)
        self._lock = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._order: Dict[str, int] = {}  # job_id -> submission sequence
        #: the queued and running jobs, in submission order
        self._live: Dict[str, Job] = {}
        #: number of jobs per status, settled ones included
        self._counts: Dict[str, int] = {}
        self._seq = itertools.count()
        #: last tenant served per priority band (round-robin cursor)
        self._last_served: Dict[int, str] = {}
        self.stats = Counters(
            "submitted", "replayed", "rejected_full", "rejected_quota", "cancelled"
        )

    # -- admission ------------------------------------------------------

    def submit(self, job: Job) -> Job:
        """Admit a job or raise a structured rejection (see module docs)."""
        with self._lock:
            if self._counts.get("queued", 0) >= self.depth:
                self.stats.add("rejected_full")
                raise QueueFull(
                    f"queue is full ({self.depth} jobs queued); retry shortly",
                    retry_after_s=self._retry_hint(),
                )
            tenant_active = sum(1 for j in self._live.values() if j.tenant == job.tenant)
            if tenant_active >= self.tenant_quota:
                self.stats.add("rejected_quota")
                raise QuotaExceeded(
                    f"tenant {job.tenant!r} already has {tenant_active} active"
                    f" job(s) (quota {self.tenant_quota}); retry when they settle",
                    retry_after_s=self._retry_hint(),
                )
            self._admit(job)
            self.stats.add("submitted")
            return job

    def readmit(self, job: Job) -> Job:
        """Admit a job a restarted daemon replays from its journal.

        The depth and quota checks are skipped: the job was admitted once
        already, and its client holds its id.
        """
        with self._lock:
            self._admit(job)
            self.stats.add("replayed")
            return job

    @holds_lock("_lock")
    def _admit(self, job: Job) -> None:
        self._jobs[job.job_id] = job
        self._order[job.job_id] = next(self._seq)
        self._counts[job.status] = self._counts.get(job.status, 0) + 1
        if job.status not in TERMINAL_STATES:
            self._live[job.job_id] = job
        self._lock.notify_all()

    @holds_lock("_lock")
    def _set_status(self, job: Job, status: str) -> None:
        """Move a job to ``status``, keeping the live index and counts."""
        self._counts[job.status] -= 1
        job.status = status
        self._counts[status] = self._counts.get(status, 0) + 1
        if status in TERMINAL_STATES:
            self._live.pop(job.job_id, None)
            job.request = None

    @holds_lock("_lock")
    def _retry_hint(self) -> float:
        """A coarse back-off hint: half a second per queued job, floored."""
        return max(0.5, 0.5 * self._counts.get("queued", 0))

    # -- dispatch -------------------------------------------------------

    @holds_lock("_lock")
    def _fair_queued(self) -> List[Job]:
        """Every queued job, in dispatch order (see module docs)."""
        queued = [j for j in self._live.values() if j.status == "queued"]
        if not queued:
            return []
        ordered: List[Job] = []
        for priority in sorted({j.priority for j in queued}, reverse=True):
            band = [j for j in queued if j.priority == priority]
            per_tenant: Dict[str, List[Job]] = {}
            for job in sorted(band, key=lambda j: self._order[j.job_id]):
                per_tenant.setdefault(job.tenant, []).append(job)
            tenants = sorted(per_tenant, key=lambda t: self._order[per_tenant[t][0].job_id])
            last = self._last_served.get(priority)
            if last in tenants:
                pivot = tenants.index(last) + 1
                tenants = tenants[pivot:] + tenants[:pivot]
            # Interleave tenants round-robin: A1 B1 C1 A2 B2 ...
            for round_index in itertools.count():
                row = [
                    per_tenant[t][round_index]
                    for t in tenants
                    if round_index < len(per_tenant[t])
                ]
                if not row:
                    break
                ordered.extend(row)
        return ordered

    def claim_next(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Claim the single next job (marks it running); ``None`` on timeout."""
        with self._lock:
            if timeout is not None and not self._lock.wait_for(
                lambda: self._counts.get("queued", 0) > 0, timeout=timeout
            ):
                return None
            queued = self._fair_queued()
            if not queued:
                return None
            job = queued[0]
            self._mark_running(job)
            return job

    def claim_run_batch(self, limit: int = 64) -> List[Job]:
        """Claim up to ``limit`` queued *run* jobs in fair order.

        The contiguous head of the fair order is taken as long as it is run
        jobs — a sweep job at the head acts as a barrier (it is claimed by
        ``claim_next`` on the next turn), which keeps dispatch order honest
        while still letting every concurrently queued run request pack into
        shared batches.
        """
        with self._lock:
            claimed: List[Job] = []
            for job in self._fair_queued():
                if job.job_type != "run" or len(claimed) >= limit:
                    break
                self._mark_running(job)
                claimed.append(job)
            return claimed

    @holds_lock("_lock")
    def _mark_running(self, job: Job) -> None:
        self._set_status(job, "running")
        job.started_at = time.time()
        self._last_served[job.priority] = job.tenant

    # -- settlement / bookkeeping --------------------------------------

    def settle(self, job_id: str, status: str, result: Optional[dict] = None) -> None:
        if status not in TERMINAL_STATES:
            raise ValueError(f"settle needs a terminal status, got {status!r}")
        with self._lock:
            job = self._jobs[job_id]
            self._set_status(job, status)
            job.finished_at = time.time()
            if result is not None:
                job.result = dict(result)
            self._lock.notify_all()

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a queued job now; flag a running one for cooperative stop.

        Returns the job, or ``None`` if the id is unknown.  Terminal jobs are
        returned unchanged (cancelling twice is a no-op, not an error).
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.status == "queued":
                self._set_status(job, "cancelled")
                job.finished_at = time.time()
                self.stats.add("cancelled")
            elif job.status == "running":
                job.cancel_requested = True
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, tenant: Optional[str] = None) -> List[Job]:
        with self._lock:
            jobs = sorted(self._jobs.values(), key=lambda j: self._order[j.job_id])
            if tenant is not None:
                jobs = [j for j in jobs if j.tenant == tenant]
            return jobs

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {status: count for status, count in self._counts.items() if count}

    def wait_for_work(self, timeout: float) -> bool:
        """Block until a job is queued (or ``timeout`` elapses)."""
        with self._lock:
            return self._lock.wait_for(
                lambda: self._counts.get("queued", 0) > 0, timeout=timeout
            )

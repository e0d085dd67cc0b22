"""The ``repro serve`` job journal: one append-only segment per daemon.

A daemon appends one compact JSON line per job transition to its own
segment, ``<store>/jobs/journal-<start ns>-<pid>.jsonl``, and holds an
exclusive ``flock`` on it for its whole life:

* ``accept``: what re-running the job needs (id, tenant, priority,
  ``submitted_at`` and the normalized payload);
* ``cancel``: a cancel request on a running job;
* ``settle``: the terminal job, as the ``result`` op returns it.

A commit writes a group of lines, flushes them and calls ``os.fdatasync``
on the segment, under one lock.  The daemon commits at two points: a
submit's accept line before the reply, so an acknowledged job is durable,
and every settle line of a scheduler round at once.

On start, a daemon takes over every other segment whose ``flock`` it can
take (its writer is dead; a live daemon's segment is never read), folds the
lines by job id, re-admits each job that was accepted and never settled,
commits their accept lines to its own segment and unlinks the old segments.
Re-running such a job is safe: records are content-addressed and probed
before execution, so work that reached the store settles as ``cached``.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..lint.annotations import guarded_by
from .queue import Job

__all__ = ["JobJournal", "accept_line", "cancel_line", "settle_line", "unsettled_jobs"]

#: The segments of every daemon that ever served a store.
SEGMENT_GLOB = "journal-*.jsonl"


def accept_line(job: Job) -> Dict[str, object]:
    return {
        "event": "accept",
        "job_id": job.job_id,
        "tenant": job.tenant,
        "priority": job.priority,
        "submitted_at": job.submitted_at,
        "payload": job.payload,
    }


def cancel_line(job: Job) -> Dict[str, object]:
    return {"event": "cancel", "job_id": job.job_id}


def settle_line(job: Job) -> Dict[str, object]:
    return {"event": "settle", **job.to_payload(include_result=True)}


def unsettled_jobs(lines: Iterable[Dict[str, object]]) -> List[Tuple[Job, bool]]:
    """The jobs with an accept line and no settle line, whatever the order
    of their lines, oldest submission first; each with whether a cancel was
    requested."""
    accepted: Dict[str, Dict[str, object]] = {}
    settled = set()
    cancelled = set()
    for line in lines:
        event, job_id = line.get("event"), str(line.get("job_id"))
        if event == "accept":
            accepted.setdefault(job_id, line)
        elif event == "settle":
            settled.add(job_id)
        elif event == "cancel":
            cancelled.add(job_id)
    jobs = [
        (
            Job(
                job_id=job_id,
                tenant=str(line["tenant"]),
                priority=int(line["priority"]),
                payload=dict(line["payload"]),
                submitted_at=float(line["submitted_at"]),
            ),
            job_id in cancelled,
        )
        for job_id, line in accepted.items()
        if job_id not in settled
    ]
    return sorted(jobs, key=lambda item: item[0].submitted_at)


@guarded_by("_lock", "_handle")
class JobJournal:
    """This daemon's segment under ``directory``, created and locked here."""

    def __init__(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        name = f"journal-{time.time_ns()}-{os.getpid()}.jsonl"
        self.path = directory / name
        # The segment takes its final name only once it is locked, so no
        # other daemon can mistake it for a dead one.
        staging = directory / f".{name}.tmp"
        fd = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            os.rename(staging, self.path)
            _fsync_directory(directory)
        except BaseException:
            os.close(fd)
            raise
        self._lock = threading.Lock()
        self._handle: BinaryIO = os.fdopen(fd, "ab")

    def commit(self, lines: Sequence[Dict[str, object]]) -> None:
        """Append ``lines`` and make them durable, as one group."""
        if not lines:
            return
        data = b"".join(
            json.dumps(line, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
            for line in lines
        )
        with self._lock:
            self._handle.write(data)
            self._handle.flush()
            os.fdatasync(self._handle.fileno())

    def close(self) -> None:
        """Close the segment, releasing its lock (it stays for the next
        daemon to replay)."""
        with self._lock:
            self._handle.close()

    @contextmanager
    def dead_segments(self) -> Iterator[List[Dict[str, object]]]:
        """Lock every other segment no live daemon holds and yield their
        lines; unlink those segments when the block exits cleanly."""
        held: List[Tuple[Path, BinaryIO]] = []
        try:
            for path in sorted(self.path.parent.glob(SEGMENT_GLOB)):
                handle = None if path == self.path else _take_segment(path)
                if handle is not None:
                    held.append((path, handle))
            yield [line for _, handle in held for line in _read_lines(handle)]
            for path, _ in held:
                path.unlink()
        finally:
            for _, handle in held:
                handle.close()


def _take_segment(path: Path) -> Optional[BinaryIO]:
    """Open and lock a dead daemon's segment; ``None`` when a live daemon
    holds it or another daemon took it over first."""
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return None
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        # A daemon that took it over since the glob has unlinked it.
        taken = os.stat(path).st_ino == os.fstat(handle.fileno()).st_ino
    except OSError:  # BlockingIOError: its daemon is alive
        taken = False
    if not taken:
        handle.close()
        return None
    return handle


def _read_lines(handle: BinaryIO) -> Iterator[Dict[str, object]]:
    for raw in handle:
        try:
            line = json.loads(raw)
        except ValueError:  # a torn last line: never committed, never acknowledged
            continue
        if isinstance(line, dict):
            yield line


def _fsync_directory(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

"""Crash-safe task leases: the work-stealing layer under ``repro sweep --join``.

Any number of orchestrator processes — on one box or on machines sharing a
filesystem — can drain the same sweep concurrently.  The store's
content-addressed records make the *results* location-independent; this
module makes the *scheduling* safe by giving every task exactly one live
owner at a time:

* **Claim** — a lease is a small JSON file under
  ``<store>/leases/<drain_key>/<task_key>.lease``.  Claiming hard-links a
  fully-written temp file onto that name: ``os.link`` fails atomically when
  the name exists (the POSIX/NFS-safe exclusive-create idiom), so exactly
  one claimant wins no matter how many race.  The store's atomic-rename
  temp-file conventions are reused for the payload write.
* **Liveness** — the holder re-stamps every held lease (one pass for all of
  them) on a heartbeat thread.  A lease whose heartbeat is older than its
  TTL belongs to a dead worker.
* **Expiry / steal** — a stealer that finds a stale lease takes the task's
  break lock (``<task_key>.lease.break``, the same exclusive-create idiom),
  re-reads the lease under it, unlinks it only if it is still stale, drops
  the lock and retries the normal claim.  A rival that stole and re-claimed
  the name in between is therefore never disturbed: a live lease is never
  moved off its name, so exactly one stealer wins.  A break lock older than
  the TTL belongs to a stealer that died mid-break and is removed.  A lease
  is never broken while its holder heartbeats on schedule.  There is no
  fencing token: a holder that stalls past its TTL (suspended VM, long GC
  pause) can race its thief and the task may execute twice — harmless by
  design, because records are content-addressed and identical, and the
  store's atomic rename makes the second write a no-op.  Mutual exclusion
  here is a work-efficiency optimization; correctness rests on the store.
* **Release** — completed (or failed) tasks delete their lease; the store
  record, not the lease, is the source of truth for "done".  A holder puts
  its record before it releases, and a claimant probes the store again
  after winning a claim, so releases never cause re-runs.

The orchestrator claims ready tasks in worker-sized packs: one scheduling
round claims, executes and heartbeats a whole pack, amortizing the
ready-scan, store probes and lease I/O over several tasks instead of one.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from ..lint.annotations import guarded_by

__all__ = ["LeaseManager", "worker_identity"]


def worker_identity() -> str:
    """A filesystem-safe, cluster-unique worker id: host + pid + nonce."""
    host = "".join(
        c if c.isalnum() or c in "-_" else "-" for c in socket.gethostname()
    )
    return f"{host}-{os.getpid()}-{os.urandom(3).hex()}"


@guarded_by("_lock", "_held", "_thread")
class LeaseManager:
    """Claims, heartbeats, expires and releases task leases for one worker.

    ``_held`` (the task->lease map) and ``_thread`` (the heartbeat thread
    handle) are shared between claimer threads, the heartbeat thread and
    ``close()``; the ``@guarded_by`` annotation above makes ``repro lint``
    verify every access happens under ``self._lock``.

    Args:
        root: the store's ``leases/`` directory (always under the federation
            write root — every joining worker must share it).
        drain_key: content fingerprint of the task set being drained; leases
            of different sweeps never collide.
        worker_id: unique worker identity (defaults to host-pid-nonce).
        ttl_s: a lease whose heartbeat is older than this is considered
            abandoned and may be stolen.
        heartbeat_interval_s: re-stamp cadence (defaults to ``ttl_s / 4``).
    """

    def __init__(
        self,
        root: "Path | str",
        drain_key: str,
        worker_id: Optional[str] = None,
        ttl_s: float = 60.0,
        heartbeat_interval_s: Optional[float] = None,
    ) -> None:
        self.dir = Path(root) / drain_key[:16]
        self.worker_id = worker_id or worker_identity()
        self.ttl_s = max(0.05, float(ttl_s))
        self.heartbeat_interval_s = float(
            heartbeat_interval_s if heartbeat_interval_s is not None else self.ttl_s / 4
        )
        self._held: Dict[str, Path] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- paths / payloads ----------------------------------------------

    def _path(self, task_key: str) -> Path:
        return self.dir / f"{task_key}.lease"

    def _payload(self, task_id: str, claimed_at: Optional[float] = None) -> bytes:
        now = time.time()
        return json.dumps(
            {
                "worker": self.worker_id,
                "task_id": task_id,
                "claimed_at": claimed_at if claimed_at is not None else now,
                "heartbeat_at": now,
                "ttl_s": self.ttl_s,
            },
            sort_keys=True,
        ).encode("utf-8")

    def _write_tmp(self, data: bytes) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = self.dir / f".tmp-{self.worker_id}-{os.urandom(4).hex()}"
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        return tmp

    # -- claiming -------------------------------------------------------

    def try_claim(self, task_key: str, task_id: str = "") -> bool:
        """Attempt to become the exclusive owner of ``task_key``.

        Returns ``False`` when another worker holds a *live* lease.  A stale
        lease (heartbeat past its TTL) is broken first, then re-claimed —
        still racing fairly against every other would-be stealer.
        """
        path = self._path(task_key)
        for attempt in range(2):
            tmp = self._write_tmp(self._payload(task_id))
            try:
                os.link(tmp, path)
            except FileExistsError:
                if attempt or not self._break_if_expired(path):
                    return False
                continue  # stale lease broken: one more exclusive-create try
            finally:
                tmp.unlink(missing_ok=True)
            with self._lock:
                self._held[task_key] = path
            self._ensure_heartbeat()
            return True
        return False  # pragma: no cover - both attempts lost the race

    def _stale(self, info: dict) -> bool:
        ttl = float(info.get("ttl_s", self.ttl_s))
        return time.time() - float(info.get("heartbeat_at", 0.0)) > ttl

    def _break_if_expired(self, path: Path) -> bool:
        """Break ``path`` if its holder stopped heartbeating.  True when the
        name is (now) free to claim."""
        info = self._read(path)
        if info is None:
            return True  # released or already broken — free
        if not self._stale(info):
            return False
        # Between our staleness read and any removal, a rival may steal and
        # re-claim the name.  So removal is serialized by a per-task break
        # lock, and the lock holder re-reads the lease before unlinking it:
        # a live lease is never moved off its name, not even briefly.
        lock = path.with_name(f"{path.name}.break")
        tmp = self._write_tmp(b"")
        try:
            os.link(tmp, lock)
        except FileExistsError:
            self._expire_break_lock(lock)
            return False  # a rival is breaking it; re-probe next round
        finally:
            tmp.unlink(missing_ok=True)
        try:
            info = self._read(path)
            if info is None:
                # Broken by the previous lock holder, whose claim may land
                # at any moment: the name is free, but not ours to unlink.
                return True
            if not self._stale(info):
                return False
            path.unlink(missing_ok=True)
            return True
        finally:
            lock.unlink(missing_ok=True)

    def _expire_break_lock(self, lock: Path) -> None:
        """Remove a break lock left by a stealer that died holding it.

        The lock is held only across one read and one unlink, so a lock
        older than the TTL is abandoned; dropping it keeps the task
        claimable instead of wedging every later steal.
        """
        try:
            if time.time() - lock.stat().st_mtime > self.ttl_s:
                lock.unlink(missing_ok=True)
        except FileNotFoundError:
            pass

    @staticmethod
    def _read(path: Path) -> Optional[dict]:
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            # Unreadable lease: report liveness from the file's mtime so a
            # damaged lease still expires rather than wedging the task.
            try:
                return {"heartbeat_at": path.stat().st_mtime, "worker": "<unreadable>"}
            except FileNotFoundError:
                return None

    # -- liveness -------------------------------------------------------

    def holder(self, task_key: str) -> Optional[dict]:
        """The current lease payload for ``task_key`` (None when unleased)."""
        return self._read(self._path(task_key))

    def is_expired(self, task_key: str) -> bool:
        """True when the lease is gone or its heartbeat is past the TTL —
        i.e. when the task is claimable again."""
        info = self._read(self._path(task_key))
        if info is None:
            return True
        ttl = float(info.get("ttl_s", self.ttl_s))
        return time.time() - float(info.get("heartbeat_at", 0.0)) > ttl

    def heartbeat_now(self) -> int:
        """Re-stamp every held lease in one pass; returns how many."""
        with self._lock:
            held = dict(self._held)
        stamped = 0
        for task_key, path in held.items():
            info = self._read(path)
            owner = None if info is None else info.get("worker")
            if owner not in (None, self.worker_id, "<unreadable>"):
                # Stolen from under us (we stalled past our own TTL): the
                # thief owns the task now — don't clobber its lease, stop
                # treating the task as held.  The store's content-addressed
                # writes keep the duplicated execution harmless.
                with self._lock:
                    self._held.pop(task_key, None)
                continue
            claimed_at = None if info is None else info.get("claimed_at")
            task_id = "" if info is None else str(info.get("task_id", ""))
            tmp = self._write_tmp(self._payload(task_id, claimed_at=claimed_at))
            os.replace(tmp, path)  # we own the name; last-wins is ourselves
            stamped += 1
        return stamped

    def _ensure_heartbeat(self) -> None:
        def _beat() -> None:
            while not self._stop.wait(self.heartbeat_interval_s):
                try:
                    self.heartbeat_now()
                except OSError:  # pragma: no cover - e.g. store dir removed
                    pass

        # Check-and-spawn under the lock: two claimers racing through here
        # used to be able to start two heartbeat threads (harmless but
        # wasteful, and close() would only join the second).
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._thread = threading.Thread(
                target=_beat, name=f"lease-heartbeat-{self.worker_id}", daemon=True
            )
            self._thread.start()

    # -- release --------------------------------------------------------

    @property
    def held(self) -> List[str]:
        with self._lock:
            return sorted(self._held)

    def release(self, task_key: str) -> None:
        with self._lock:
            path = self._held.pop(task_key, None)
        if path is not None:
            path.unlink(missing_ok=True)

    def close(self, abandon: bool = False) -> None:
        """Stop heartbeating and release everything still held.

        ``abandon=True`` (or ``REPRO_TEST_ABANDON_LEASES=1`` in the
        environment — the deterministic crash simulation used by the
        recovery tests) leaves the lease files on disk exactly as a killed
        worker would, so expiry/steal paths can be exercised end-to-end.
        """
        self._stop.set()
        # Take the handle under the lock, join outside it: the heartbeat
        # thread acquires _lock in heartbeat_now(), so joining while holding
        # the lock could stall the join until its timeout.
        with self._lock:
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout=5.0)
        if (
            abandon
            or os.environ.get("REPRO_TEST_ABANDON_LEASES") == "1"
            or os.environ.get("REPRO_TEST_CRASH_AFTER_CLAIMS")
        ):
            with self._lock:
                self._held.clear()
            return
        for task_key in self.held:
            self.release(task_key)

"""Client side of the sweep-service protocol.

:class:`ServiceClient` speaks the JSON-line protocol over the daemon's Unix
socket: one connection per call, one request object per line, one response
line back (``watch`` streams many).  Protocol-level failures raise
:class:`ServiceError` carrying the structured payload — admission rejections
(``queue_full``, ``quota_exceeded``) expose ``retry_after_s`` so callers can
back off; an unreachable daemon raises :class:`ServiceUnavailable`.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, Iterator, List, Optional

__all__ = ["ServiceClient", "ServiceError", "ServiceUnavailable"]


class ServiceError(RuntimeError):
    """A structured error response from the daemon."""

    def __init__(self, payload: Dict[str, object]) -> None:
        self.payload = dict(payload)
        self.code = str(payload.get("error", "error"))
        self.retry_after_s = payload.get("retry_after_s")
        super().__init__(str(payload.get("message", self.code)))


class ServiceUnavailable(ServiceError):
    """No daemon is answering on the socket path."""

    def __init__(self, socket_path: str, cause: Exception) -> None:
        super().__init__(
            {
                "error": "unavailable",
                "message": f"no daemon on {socket_path} ({cause}); is `repro serve` running?",
            }
        )


class ServiceClient:
    """A thin, connection-per-call client for one daemon socket."""

    def __init__(self, socket_path: str, timeout_s: float = 300.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout_s = float(timeout_s)

    # -- transport ------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout_s)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ServiceUnavailable(self.socket_path, exc) from exc
        return sock

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """One request/response round trip; raises on ``ok: false``."""
        sock = self._connect()
        try:
            sock.sendall(json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n")
            response = self._read_line(sock)
        finally:
            sock.close()
        if not response.get("ok", False):
            raise ServiceError(response)
        return response

    @staticmethod
    def _read_line(sock: socket.socket) -> Dict[str, object]:
        buffer = bytearray()
        while not buffer.endswith(b"\n"):
            data = sock.recv(65536)
            if not data:
                break
            buffer.extend(data)
        if not buffer:
            raise ServiceError({"error": "closed", "message": "daemon closed the connection"})
        return json.loads(buffer.decode("utf-8"))

    # -- ops ------------------------------------------------------------

    def ping(self) -> Dict[str, object]:
        return self.request({"op": "ping"})

    def submit_run(
        self,
        params: Dict[str, object],
        kind: str = "benchmark_run",
        tenant: str = "default",
        priority: int = 0,
    ) -> str:
        """Submit one run/task job; returns its job id."""
        response = self.request(
            {
                "op": "submit",
                "tenant": tenant,
                "priority": priority,
                "job": {"type": "run", "kind": kind, "params": dict(params)},
            }
        )
        return str(response["job_id"])

    def submit_sweep(
        self,
        sweeps: List[Dict[str, object]],
        name: Optional[str] = None,
        tenant: str = "default",
        priority: int = 0,
    ) -> str:
        """Submit a declarative sweep job; returns its job id."""
        job: Dict[str, object] = {"type": "sweep", "sweeps": list(sweeps)}
        if name is not None:
            job["name"] = str(name)
        response = self.request(
            {"op": "submit", "tenant": tenant, "priority": priority, "job": job}
        )
        return str(response["job_id"])

    def status(self, job_id: str) -> Dict[str, object]:
        return self.request({"op": "status", "job_id": job_id})["job"]

    def result(self, job_id: str) -> Dict[str, object]:
        return self.request({"op": "result", "job_id": job_id})["job"]

    def partial(self, job_id: str) -> Dict[str, object]:
        """Streamed partial aggregation of a running sweep job."""
        return self.request({"op": "partial", "job_id": job_id})["summary"]

    def jobs(self, tenant: Optional[str] = None) -> List[Dict[str, object]]:
        payload: Dict[str, object] = {"op": "jobs"}
        if tenant is not None:
            payload["tenant"] = tenant
        return list(self.request(payload)["jobs"])

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self.request({"op": "cancel", "job_id": job_id})["job"]

    def stats(self) -> Dict[str, object]:
        return self.request({"op": "stats"})

    def shutdown(self) -> Dict[str, object]:
        return self.request({"op": "shutdown"})

    def watch(self, job_id: str) -> Iterator[Dict[str, object]]:
        """Stream status snapshots until the job settles (the ``watch`` op)."""
        sock = self._connect()
        try:
            sock.sendall(
                json.dumps({"op": "watch", "job_id": job_id}).encode("utf-8") + b"\n"
            )
            buffer = bytearray()
            while True:
                newline = buffer.find(b"\n")
                if newline < 0:
                    data = sock.recv(65536)
                    if not data:
                        return
                    buffer.extend(data)
                    continue
                line = bytes(buffer[:newline])
                del buffer[: newline + 1]
                snapshot = json.loads(line.decode("utf-8"))
                if not snapshot.get("ok", False):
                    raise ServiceError(snapshot)
                yield snapshot
                if snapshot.get("final"):
                    return
        finally:
            sock.close()

    # -- conveniences ---------------------------------------------------

    def wait(self, job_id: str, timeout_s: float = 300.0) -> Dict[str, object]:
        """Block until a job settles; returns its terminal payload.

        Prefers the streaming ``watch`` op; falls back to polling if the
        stream drops (e.g. the daemon restarts the listener mid-wait).
        """
        deadline = time.monotonic() + float(timeout_s)
        while time.monotonic() < deadline:
            try:
                for snapshot in self.watch(job_id):
                    if snapshot.get("final"):
                        return dict(snapshot["job"])
            except ServiceUnavailable:
                raise
            except ServiceError:
                raise
            except OSError:
                pass  # stream dropped; poll below
            try:
                job = self.result(job_id)
            except ServiceUnavailable:
                raise
            if job.get("status") in ("done", "failed", "cancelled"):
                return job
            time.sleep(0.1)
        raise TimeoutError(f"job {job_id} did not settle within {timeout_s}s")

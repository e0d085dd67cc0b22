"""The serve-burst workload: a ``repro serve`` daemon driven in a closed loop.

:func:`request_plan` turns the workload seed into bursts of run requests;
:class:`Daemon` owns one daemon child process from start to exit status;
:func:`drive` submits the bursts and collects every job's timestamps.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

#: The six contexts, all inside the daemon's 8-entry context cache.  The
#: mirror circuit is fixed: its seed changes routing, and so the context's
#: cost, by up to 2x (see ``units.MIRROR_CIRCUIT_SEED``).
CONTEXTS = (
    ("ibmq_rome", "GHZ:5"),
    ("ibmq_rome", "ADDER-4"),
    ("ibmq_toronto", "BV-7"),
    ("ibmq_toronto", "QPEA-5"),
    ("ibmq_guadalupe", "QFT-5"),
    ("heavy_hex:4", "MIRROR:63@7"),
)
#: 12288 exceeds the daemon's 8192-shot chunk bound, so it splits in two.
SHOTS = (1024, 2048, 4096, 12288)
TENANTS = 4
PER_TENANT = 12  # under the daemon's default tenant quota of 16
BURST = TENANTS * PER_TENANT
MIN_REQUESTS = 1000  # so the 99th percentile has ten samples beyond it
NOMINAL_RPS = 70.0  # sizes a run to --seconds on the reference machine
TERMINAL = ("done", "failed", "cancelled")


def burst_count(seconds: float) -> int:
    return max(-(-MIN_REQUESTS // BURST), round(seconds * NOMINAL_RPS / BURST))


def _context_params(index: int, shots: int, request_seed: int) -> Dict[str, object]:
    device, benchmark = CONTEXTS[index]
    return {
        "device": device,
        "benchmark": benchmark,
        "shots": shots,
        "seed": request_seed,
    }


def warmup_plan(seed: int) -> List[Dict[str, object]]:
    """One request per context, on seeds the timed plan never uses."""
    return [
        _context_params(i, SHOTS[0], 10**6 * seed + 900_000 + i)
        for i in range(len(CONTEXTS))
    ]


def request_plan(seed: int, bursts: int) -> List[List[Tuple[str, Dict[str, object], bool]]]:
    """Bursts of ``(tenant, params, is_resubmission)``, a pure function of
    the seed.

    Tenants interleave t0 t1 t2 t3 t0 ...; fresh requests cycle through the
    contexts and, every full cycle, through the shot budgets.  From the
    second burst on, every fourth request resubmits a key settled in an
    earlier burst (its position rotates across tenants), so the store serves
    the same share of reads in every run.
    """
    rng = random.Random(seed)
    settled: List[Dict[str, object]] = []
    fresh_count = 0
    plan = []
    for b in range(bursts):
        burst = []
        fresh_here = []
        for i in range(BURST):
            tenant = f"t{i % TENANTS}"
            if b > 0 and i % TENANTS == (i // TENANTS) % TENANTS:
                burst.append((tenant, dict(settled[rng.randrange(len(settled))]), True))
                continue
            context = fresh_count % len(CONTEXTS)
            shots = SHOTS[(fresh_count // len(CONTEXTS)) % len(SHOTS)]
            params = _context_params(context, shots, 10**6 * seed + fresh_count)
            fresh_count += 1
            fresh_here.append(params)
            burst.append((tenant, params, False))
        settled.extend(fresh_here)
        plan.append(burst)
    return plan


class Daemon:
    """One ``repro serve`` child: started, answered ``ping``, stopped, reaped."""

    def __init__(self, root: str, workdir: str, name: str, env: Dict[str, str]) -> None:
        from repro.service.client import ServiceClient

        self.store = os.path.join(workdir, f"{name}-store")
        # Relative to the checkout root, which is every process's cwd: an
        # absolute path under a deep checkout can exceed the AF_UNIX limit.
        self.socket = os.path.relpath(os.path.join(workdir, f"{name}.sock"), root)
        self.client = ServiceClient(self.socket, timeout_s=60.0)
        self.log_path = os.path.join(workdir, f"{name}.log")
        self._root = root
        self._env = env
        self.proc: Optional[subprocess.Popen] = None
        self.exit_status: Optional[int] = None
        self.peak_rss_mb: Optional[float] = None

    def start(self, timeout_s: float = 60.0) -> None:
        from repro.service.client import ServiceError

        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--store", self.store,
                 "--socket", self.socket, "--quiet"],
                cwd=self._root, env=self._env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited during start-up, see {self.log_path}")
            try:
                # The socket file exists before the listener accepts, so
                # only an answered ping means ready.
                self.client.ping()
                return
            except ServiceError:
                time.sleep(0.02)
        raise RuntimeError(f"daemon did not answer ping within {timeout_s}s")

    def warm(self, seed: int) -> None:
        jobs = [self.client.submit_run(p, tenant="warmup") for p in warmup_plan(seed)]
        for job in collect(self.client, jobs).values():
            if job["status"] != "done":
                raise RuntimeError(f"warm-up request failed: {job}")

    def stop(self, timeout_s: float = 30.0) -> None:
        """Ask for shutdown, escalate to SIGTERM then SIGKILL, and reap the
        child with its exit status and peak RSS."""
        if self.proc is None or self.exit_status is not None:
            return
        try:
            self.client.shutdown()
        except Exception:  # noqa: BLE001 - a dead daemon still gets reaped below
            pass
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                self.proc.send_signal(sig)
            deadline = time.monotonic() + timeout_s
            while time.monotonic() < deadline:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    self.exit_status = self.proc.returncode
                    self.peak_rss_mb = usage.ru_maxrss / 1024.0
                    return
                time.sleep(0.02)
        raise RuntimeError("daemon survived SIGKILL")


def collect(client, job_ids: List[str], poll_s: float = 0.05) -> Dict[str, dict]:
    """Wait until every job settles, oldest first; returns their payloads.

    Polls the ``result`` op instead of ``ServiceClient.wait``: timings come
    from the job's own timestamps, not from when a watcher noticed.
    """
    settled: Dict[str, dict] = {}
    for job_id in job_ids:
        while True:
            job = client.result(job_id)
            if job["status"] in TERMINAL:
                settled[job_id] = job
                break
            time.sleep(poll_s)
    return settled


def drive(client, plan) -> List[List[dict]]:
    """Submit each burst back to back, wait for all of it, then the next.

    Returns, per burst, one record per request: submit start (wall clock,
    comparable with the daemon's timestamps), submit round trip, and the
    settled job payload (``None`` when the submission was refused).
    """
    from repro.service.client import ServiceError

    bursts = []
    for burst in plan:
        submitted = []
        for tenant, params, resubmitted in burst:
            submit_at = time.time()
            start = time.perf_counter()
            try:
                job_id = client.submit_run(params, tenant=tenant)
            except ServiceError as exc:
                job_id, refused = None, exc.code
            else:
                refused = None
            submitted.append({
                "params": params,
                "resubmitted": resubmitted,
                "submit_at": submit_at,
                "submit_rtt": time.perf_counter() - start,
                "job_id": job_id,
                "refused": refused,
            })
        job_ids = [s["job_id"] for s in submitted if s["job_id"]]
        # Only the last submission is polled while the burst executes: the
        # scheduler claims in submission order, so when it settles the rest
        # have, and the daemon serves no other client calls meanwhile.
        collect(client, job_ids[-1:])
        jobs = collect(client, job_ids)
        for entry in submitted:
            entry["job"] = jobs.get(entry["job_id"])
        bursts.append(submitted)
    return bursts

"""The daemon's job journal: one append-only segment per daemon, committed
once per acknowledged submit and once per round, and replayed on restart.

* a job acknowledged before a crash (``os._exit`` in a child process) runs
  after the restart under its original id, and its record equals a serial
  run's;
* a job whose terminal line was committed before the crash is not run again;
* a live daemon's segment is never replayed, a dead one's is, then removed;
* a spy on ``os.fdatasync`` sees each accept line durable before the submit
  reply, and one commit per scheduler round; racing commits land whole;
* the daemon writes no per-job file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.service import (
    DEFAULT_MAX_SHOTS,
    Job,
    RunRequest,
    SweepService,
    execute_run_requests,
)
from repro.service.journal import (
    JobJournal,
    accept_line,
    cancel_line,
    settle_line,
    unsettled_jobs,
)
from repro.store.keys import canonical_json

REPO_ROOT = Path(__file__).resolve().parents[1]

BASE = {"device": "ibmq_rome", "benchmark": "GHZ:3", "shots": 384}

#: A daemon that gets one submit acknowledged, optionally waits for it to
#: settle, then dies without closing anything.
CRASHING_DAEMON = """
import json, os, sys
from repro.service import SweepService

store, sock, params, settle = sys.argv[1], sys.argv[2], json.loads(sys.argv[3]), sys.argv[4]
service = SweepService(store, sock, poll_interval_s=0.02)
if settle != "settle":
    service.pause()
service.start()
reply = service.handle(
    {"op": "submit", "tenant": "alice", "priority": 2,
     "job": {"type": "run", "kind": "benchmark_run", "params": params}}
)
if settle == "settle":
    assert service.wait_idle(timeout=120)
print(json.dumps(reply), flush=True)
os._exit(0)
"""


def _submit(service: SweepService, params: dict, tenant: str = "t") -> str:
    reply = service.handle(
        {
            "op": "submit",
            "tenant": tenant,
            "job": {"type": "run", "kind": "benchmark_run", "params": dict(params)},
        }
    )
    assert reply["ok"], reply
    return reply["job_id"]


def _crash_after_submit(tmp_path: Path, params: dict, settle: bool) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            CRASHING_DAEMON,
            str(tmp_path / "store"),
            str(tmp_path / "svc.sock"),
            json.dumps(params),
            "settle" if settle else "crash",
        ],
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    reply = json.loads(proc.stdout.decode().splitlines()[-1])
    assert reply["ok"], reply
    return reply["job_id"]


def _segments(store: Path):
    return sorted((store / "jobs").glob("journal-*.jsonl"))


def _lines(segment: Path):
    return [json.loads(line) for line in segment.read_text().splitlines()]


def _service(tmp_path: Path, name: str = "svc") -> SweepService:
    return SweepService(
        str(tmp_path / "store"), str(tmp_path / f"{name}.sock"), poll_interval_s=0.02
    )


class TestReplay:
    def test_job_acknowledged_before_a_crash_runs_after_restart(self, tmp_path):
        params = {**BASE, "seed": 91}
        job_id = _crash_after_submit(tmp_path, params, settle=False)
        (dead,) = _segments(tmp_path / "store")
        service = _service(tmp_path)  # the crashed daemon's socket path
        service.start()
        try:
            assert service.wait_idle(timeout=120)
            job = service.queue.get(job_id)
            assert (job.status, job.tenant, job.priority) == ("done", "alice", 2)
            assert job.result["status"] == "executed"
            record = service.store.get(job.result["key"])
        finally:
            service.close()
        (outcome,) = execute_run_requests(
            [RunRequest.from_params({**params, "max_shots": DEFAULT_MAX_SHOTS})]
        ).values()
        assert job.result["key"] == outcome.key
        assert canonical_json(record.meta) == canonical_json(outcome.meta)
        # The dead segment was folded into the new one and removed.
        (segment,) = _segments(tmp_path / "store")
        assert segment != dead
        events = [(line["event"], line["job_id"]) for line in _lines(segment)]
        assert events == [("accept", job_id), ("settle", job_id)]

    def test_settled_job_is_not_run_again(self, tmp_path):
        job_id = _crash_after_submit(tmp_path, {**BASE, "seed": 92}, settle=True)
        service = _service(tmp_path)
        service.start()
        try:
            assert service.queue.get(job_id) is None
            assert service.queue.counts() == {}
            assert service.wait_idle(timeout=30)
            assert service.store.stats["writes"] == 0
            assert service.queue.stats["replayed"] == 0
        finally:
            service.close()
        (segment,) = _segments(tmp_path / "store")
        assert _lines(segment) == []

    def test_live_segments_are_never_replayed(self, tmp_path):
        first, second, third = (_service(tmp_path, name) for name in "abc")
        for service in (first, second, third):
            service.pause()
        first.start()
        try:
            held_by_first = _submit(first, {**BASE, "seed": 93})
            second.start()
            assert second.queue.get(held_by_first) is None
            held_by_second = _submit(second, {**BASE, "seed": 94})
            assert len(_segments(tmp_path / "store")) == 2
            first.close()  # its job stays acknowledged and unsettled
            third.start()
            assert third.queue.get(held_by_first).status == "queued"
            assert third.queue.get(held_by_second) is None
            assert third.queue.stats["replayed"] == 1
        finally:
            for service in (first, second, third):
                service.close()
        assert len(_segments(tmp_path / "store")) == 2  # second's and third's

    def test_cancel_of_a_running_job_survives_a_restart(self, tmp_path):
        service = _service(tmp_path)
        service.pause()
        service.start()
        try:
            job_id = _submit(service, {**BASE, "seed": 96})
            assert service.queue.claim_next().job_id == job_id  # now running
            assert service.handle({"op": "cancel", "job_id": job_id})["ok"]
        finally:
            service.close()  # the job never settled
        (segment,) = _segments(tmp_path / "store")
        assert [line["event"] for line in _lines(segment)] == ["accept", "cancel"]
        restarted = _service(tmp_path)
        restarted.start()
        try:
            assert restarted.queue.get(job_id).status == "cancelled"
            assert restarted.wait_idle(timeout=30)
            assert restarted.store.stats["writes"] == 0
        finally:
            restarted.close()

    def test_fold_ignores_line_order_and_settles_cancelled_jobs(self, tmp_path):
        jobs = [
            Job(job_id=name, tenant="t", priority=0, payload={"type": "run"}, submitted_at=at)
            for name, at in (("ran", 1.0), ("cancelled", 2.0), ("queued", 3.0))
        ]
        ran, cancelled, queued = jobs
        ran.status = "done"
        lines = [
            settle_line(ran),  # a round may commit before its submit did
            accept_line(queued),
            accept_line(ran),
            accept_line(cancelled),
            cancel_line(cancelled),
        ]
        folded = unsettled_jobs(lines)
        assert [(job.job_id, cancel) for job, cancel in folded] == [
            ("cancelled", True),
            ("queued", False),
        ]
        # A dead daemon's segment, torn last line included.
        jobs_dir = tmp_path / "store" / "jobs"
        jobs_dir.mkdir(parents=True)
        dead = jobs_dir / "journal-1-1.jsonl"
        dead.write_text("".join(json.dumps(line) + "\n" for line in lines) + '{"event": "acc')
        service = _service(tmp_path)
        service.pause()
        service.start()
        try:
            assert service.queue.get("cancelled").status == "cancelled"
            assert service.queue.get("queued").status == "queued"
            assert service.queue.get("ran") is None
        finally:
            service.close()
        assert not dead.exists()
        (segment,) = _segments(tmp_path / "store")
        events = [(line["event"], line["job_id"]) for line in _lines(segment)]
        assert events == [
            ("accept", "cancelled"),
            ("settle", "cancelled"),
            ("accept", "queued"),
        ]

    def test_a_replayed_job_this_daemon_cannot_run_fails_alone(self, tmp_path):
        # Replayed payloads skip admission's validation: one naming a workload
        # this daemon does not know must fail its job, not the scheduler.
        good = {**BASE, "seed": 97, "max_shots": DEFAULT_MAX_SHOTS}
        sweep = {"name": "s", "kind": "no-such-kind", "devices": ["ibmq_rome"]}
        lines = [
            accept_line(
                Job(job_id=job_id, tenant="t", priority=0, payload=payload, submitted_at=at)
            )
            for job_id, payload, at in (
                ("unknown", {"type": "run", "params": {**good, "benchmark": "NOPE-9"}}, 1.0),
                ("good", {"type": "run", "params": good}, 2.0),
                ("sweep", {"type": "sweep", "name": "s", "sweeps": [sweep]}, 3.0),
            )
        ]
        jobs_dir = tmp_path / "store" / "jobs"
        jobs_dir.mkdir(parents=True)
        (jobs_dir / "journal-1-1.jsonl").write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )
        service = _service(tmp_path)
        service.start()
        try:
            assert service.wait_idle(timeout=120)
            unknown = service.queue.get("unknown")
            assert unknown.status == "failed" and "NOPE-9" in unknown.result["error"]
            assert service.queue.get("good").status == "done"
            assert service.queue.get("sweep").status == "failed"
        finally:
            service.close()
        (segment,) = _segments(tmp_path / "store")
        settled = {
            line["job_id"]: line["status"] for line in _lines(segment) if line["event"] == "settle"
        }
        assert settled == {"unknown": "failed", "good": "done", "sweep": "failed"}


class TestCommitPoints:
    N = 4

    def test_racing_commits_land_whole_lines_once(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        per_thread = 150

        def commit(index):
            for i in range(per_thread):
                lines = [{"job_id": f"{index}-{i}-{part}"} for part in range(i % 3 + 1)]
                journal.commit(lines)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=commit, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            journal.close()
        assert not any(thread.is_alive() for thread in threads)
        ids = [line["job_id"] for line in _lines(journal.path)]
        expected = [
            f"{index}-{i}-{part}"
            for index in range(6)
            for i in range(per_thread)
            for part in range(i % 3 + 1)
        ]
        assert sorted(ids) == sorted(expected)
        # A commit's lines stay together and in order.
        for position, job_id in enumerate(ids):
            index, i, part = job_id.split("-")
            if part != "0":
                assert ids[position - 1] == f"{index}-{i}-{int(part) - 1}"

    def test_submit_commits_before_replying_and_a_round_commits_once(
        self, tmp_path, monkeypatch
    ):
        service = _service(tmp_path)
        service.pause()
        service.start()
        (segment,) = _segments(tmp_path / "store")
        commits = []
        fdatasync = os.fdatasync

        def spy(fd):
            fdatasync(fd)
            commits.append(_lines(segment))

        monkeypatch.setattr(os, "fdatasync", spy)
        try:
            job_ids = []
            for seed in range(self.N):
                job_ids.append(_submit(service, {**BASE, "seed": 95 + seed}))
                # The accept line was durable before handle() returned.
                assert len(commits) == len(job_ids)
                last = commits[-1][-1]
                assert (last["event"], last["job_id"]) == ("accept", job_ids[-1])
            service.resume()
            assert service.wait_idle(timeout=120)
            assert {service.queue.get(job_id).status for job_id in job_ids} == {"done"}
            # N accepts, then one commit for the whole round.
            assert len(commits) == self.N + 1
            settled = [line["job_id"] for line in commits[-1] if line["event"] == "settle"]
            assert sorted(settled) == sorted(job_ids)
            assert service.contexts.packing["rounds"] == 1
        finally:
            service.close()
        # One segment and no per-job file.
        assert list((tmp_path / "store" / "jobs").iterdir()) == [segment]

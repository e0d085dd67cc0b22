"""The sweep service: packer, queue, bit-identity, daemon e2e, CLI.

Layers, from pure to full-stack:

* the shot/experiment packer (:mod:`repro.service.scheduler`): chunk plans,
  overflow splitting, per-context batches, the closed-form batch count;
* the multi-tenant queue (:mod:`repro.service.queue`): bounded-depth
  backpressure, per-tenant quotas, priority bands, tenant-fair dispatch —
  all as *structured* rejections, never tracebacks;
* the shared ``Request → Schedule → BatchJob`` path: a request executed
  serially (``repro run``), chunked, or packed alongside strangers produces
  the byte-identical record under the same store key;
* the daemon itself: concurrent clients over the Unix socket, packed
  batches (batch count < request count), 100% store hits on identical
  resubmission, cancellation, graceful SIGTERM shutdown of the real
  ``python -m repro serve`` process.
"""

from __future__ import annotations

import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service import (
    DEFAULT_MAX_SHOTS,
    ContextCache,
    Job,
    JobQueue,
    QueueFull,
    QuotaExceeded,
    RunRequest,
    ServiceClient,
    ServiceError,
    SweepService,
    chunk_request,
    execute_run_requests,
    pack_chunks,
    split_shots,
)
from repro.service import server as server_module
from repro.service.scheduler import chunk_seeds, expected_batches
from repro.service.server import MAX_REQUEST_BYTES

REPO_ROOT = Path(__file__).resolve().parents[1]

BASE = {"device": "ibmq_rome", "benchmark": "GHZ:3", "shots": 384}


def _request(**overrides) -> RunRequest:
    params = dict(BASE)
    params.update(overrides)
    return RunRequest(**params)


def _job(job_id, tenant="t", priority=0, job_type="run") -> Job:
    return Job(job_id=job_id, tenant=tenant, priority=priority, payload={"type": job_type})


# ---------------------------------------------------------------------------
# The packer
# ---------------------------------------------------------------------------


class TestPacker:
    def test_empty_request_set_packs_to_no_batches(self):
        assert pack_chunks([], max_experiments=75) == []
        contexts = ContextCache()
        assert execute_run_requests([], contexts=contexts) == {}
        assert contexts.packing.snapshot() == {
            "rounds": 1,
            "requests": 0,
            "chunks": 0,
            "batches": 0,
            "contexts": 0,
            "total_shots": 0,
        }

    def test_split_shots_overflow_and_remainder(self):
        assert split_shots(100, 8192) == [100]
        assert split_shots(8192, 8192) == [8192]
        assert split_shots(8193, 8192) == [8192, 1]
        assert split_shots(600, 256) == [256, 256, 88]
        assert sum(split_shots(123456, 8192)) == 123456

    @pytest.mark.parametrize("shots,max_shots", [(0, 10), (10, 0), (-5, 10)])
    def test_split_shots_rejects_non_positive(self, shots, max_shots):
        with pytest.raises(ValueError, match="positive"):
            split_shots(shots, max_shots)

    def test_single_chunk_keeps_the_request_seed(self):
        # The common case must be the exact execution a plain run performs.
        assert chunk_seeds(1234, 1) == [1234]
        many = chunk_seeds(1234, 3)
        assert len(many) == 3 and len(set(many)) == 3
        assert many == chunk_seeds(1234, 3)  # deterministic
        assert many != chunk_seeds(1235, 3)

    def test_request_larger_than_max_shots_splits_across_batches(self):
        request = _request(shots=600, max_shots=256)
        chunks = chunk_request(request)
        assert [c.shots for c in chunks] == [256, 256, 88]
        assert [c.chunk_index for c in chunks] == [0, 1, 2]
        # With room for 2 experiments per batch, 3 chunks overflow into 2.
        batches = pack_chunks(chunks, max_experiments=2)
        assert [len(b.chunks) for b in batches] == [2, 1]
        assert sum(b.total_shots for b in batches) == 600

    def test_more_requests_than_max_experiments(self):
        requests = [_request(seed=s) for s in range(7)]
        chunks = [c for r in requests for c in chunk_request(r)]
        batches = pack_chunks(chunks, max_experiments=3)
        assert len(batches) == expected_batches([7], 3) == 3
        assert [len(b.chunks) for b in batches] == [3, 3, 1]

    def test_contexts_never_share_a_batch(self):
        ghz = [_request(seed=s) for s in range(2)]
        qft = [_request(benchmark="QFT-5", seed=s) for s in range(2)]
        chunks = [c for r in (*ghz, *qft) for c in chunk_request(r)]
        batches = pack_chunks(chunks, max_experiments=75)
        assert len(batches) == 2
        for batch in batches:
            assert {c.context_key for c in batch.chunks} == {batch.context_key}

    def test_arrival_order_is_preserved_within_context(self):
        requests = [_request(seed=s) for s in range(5)]
        chunks = [c for r in requests for c in chunk_request(r)]
        (batch,) = pack_chunks(chunks, max_experiments=75)
        assert [c.request.seed for c in batch.chunks] == [0, 1, 2, 3, 4]

    def test_benchmark_run_default_matches_service_default(self):
        # max_shots is result-determining; the task-kind default and the
        # service default must never drift apart.
        from repro.runtime.tasks import merged_params

        merged = merged_params("benchmark_run", dict(BASE))
        assert int(merged["max_shots"]) == DEFAULT_MAX_SHOTS


# ---------------------------------------------------------------------------
# The queue
# ---------------------------------------------------------------------------


class TestQueue:
    def test_bounded_queue_rejects_with_retry_after(self):
        queue = JobQueue(depth=2, tenant_quota=16)
        queue.submit(_job("a"))
        queue.submit(_job("b"))
        with pytest.raises(QueueFull) as excinfo:
            queue.submit(_job("c"))
        payload = excinfo.value.to_payload()
        assert payload["ok"] is False
        assert payload["error"] == "queue_full"
        assert payload["retry_after_s"] > 0
        assert queue.stats["rejected_full"] == 1

    def test_tenant_quota_spares_other_tenants(self):
        queue = JobQueue(depth=64, tenant_quota=2)
        queue.submit(_job("a1", tenant="alice"))
        queue.submit(_job("a2", tenant="alice"))
        with pytest.raises(QuotaExceeded) as excinfo:
            queue.submit(_job("a3", tenant="alice"))
        assert excinfo.value.to_payload()["error"] == "quota_exceeded"
        queue.submit(_job("b1", tenant="bob"))  # bob is unaffected
        assert queue.stats["rejected_quota"] == 1

    def test_mixed_tenant_fairness_under_a_full_queue(self):
        # alice floods the queue to capacity; bob's single job must not wait
        # behind her backlog.
        queue = JobQueue(depth=8, tenant_quota=8)
        for i in range(7):
            queue.submit(_job(f"a{i}", tenant="alice"))
        queue.submit(_job("b0", tenant="bob"))
        with pytest.raises(QueueFull):
            queue.submit(_job("overflow", tenant="bob"))
        order = [job.job_id for job in queue.claim_run_batch(limit=8)]
        assert order.index("b0") <= 1  # interleaved, not appended
        # FIFO preserved within alice's band.
        alice = [j for j in order if j.startswith("a")]
        assert alice == sorted(alice, key=lambda j: int(j[1:]))

    def test_priority_bands_dispatch_first(self):
        queue = JobQueue(depth=8, tenant_quota=8)
        queue.submit(_job("low", priority=0))
        queue.submit(_job("high", priority=5))
        assert queue.claim_next().job_id == "high"
        assert queue.claim_next().job_id == "low"

    def test_sweep_job_is_a_batch_barrier(self):
        queue = JobQueue(depth=8, tenant_quota=8)
        queue.submit(_job("r1"))
        queue.submit(_job("s1", job_type="sweep"))
        queue.submit(_job("r2"))
        batch = queue.claim_run_batch()
        assert [j.job_id for j in batch] == ["r1"]
        assert queue.claim_next().job_id == "s1"

    def test_cancel_queued_now_running_cooperatively(self):
        queue = JobQueue(depth=8, tenant_quota=8)
        queue.submit(_job("a"))
        queue.submit(_job("b"))
        running = queue.claim_next()
        cancelled = queue.cancel("b" if running.job_id == "a" else "a")
        assert cancelled.status == "cancelled"
        flagged = queue.cancel(running.job_id)
        assert flagged.status == "running" and flagged.cancel_requested
        assert queue.cancel("nope") is None

    @pytest.mark.parametrize("kwargs", [{"depth": 0}, {"tenant_quota": -1}])
    def test_rejects_non_positive_bounds(self, kwargs):
        with pytest.raises(ValueError, match="positive"):
            JobQueue(**kwargs)


class TestQueueLiveIndex:
    """Admission and dispatch read only the live jobs, however many settled."""

    def test_submit_and_claim_read_no_settled_job(self):
        queue = JobQueue(depth=8, tenant_quota=2)
        for i in range(3000):
            queue.submit(_job(f"old{i}", tenant=f"t{i % 3}"))
            (job,) = queue.claim_run_batch()
            queue.settle(job.job_id, "done" if i % 2 else "failed")
        queue.submit(_job("cancelled"))
        queue.cancel("cancelled")
        reads = []

        class Spy(Job):
            def __getattribute__(self, name):
                reads.append(name)
                return super().__getattribute__(name)

        for job in queue.jobs():
            job.__class__ = Spy
        reads.clear()
        queue.submit(_job("a", tenant="t0"))
        queue.submit(_job("b", tenant="t0"))
        with pytest.raises(QuotaExceeded):
            queue.submit(_job("c", tenant="t0"))
        assert [job.job_id for job in queue.claim_run_batch()] == ["a", "b"]
        queue.settle("a", "done")
        assert queue.claim_next() is None
        assert queue.counts() == {"done": 1501, "failed": 1500, "cancelled": 1, "running": 1}
        assert reads == []
        assert queue.get("old0").status == "failed" and reads  # the spy works


# ---------------------------------------------------------------------------
# The shared Request → Schedule → BatchJob path
# ---------------------------------------------------------------------------


class TestBitIdentity:
    def test_sparse_and_explicit_params_share_a_key(self):
        sparse = RunRequest.from_params(dict(BASE))
        explicit = RunRequest.from_params(sparse.params())
        assert sparse.key == explicit.key
        assert sparse.context_key == explicit.context_key

    def test_engine_policy_follows_the_workload(self):
        from repro.workloads.suite import get_benchmark

        for name in ("GHZ:3", "QFT-5", "MIRROR:4@1"):
            request = _request(benchmark=name)
            expected = (
                "stabilizer_frames"
                if get_benchmark(name).expected_output is not None
                else "auto_dense"
            )
            assert request.engine is None, name  # the keyed param stays None
            assert request.resolved_engine == expected, name

    def test_packed_execution_is_bit_identical_to_serial(self):
        from repro.runtime.tasks import run_task

        target = _request(seed=3)
        # Serial: the benchmark_run task kind, exactly as `repro run` does.
        serial_meta, _ = run_task("benchmark_run", target.params())
        # Packed: the same request in one round with seven strangers, split
        # into chunks and sharing batches (tiny max_experiments forces
        # overflow, tiny max_shots forces multi-chunk requests).
        strangers = [_request(seed=s, max_shots=128) for s in (7, 8, 9)]
        crowd = [target, *strangers, _request(benchmark="QFT-5", seed=3)]
        contexts = ContextCache()
        outcomes = execute_run_requests(crowd, contexts=contexts, max_experiments=2)
        packed = outcomes[target.request_id]
        assert packed.status == "executed"
        assert packed.key == target.key
        assert json.dumps(packed.meta, sort_keys=True) == json.dumps(
            serial_meta, sort_keys=True
        )
        stats = contexts.packing
        assert stats["batches"] < stats["requests"] or stats["chunks"] > stats["requests"]

    def test_chunked_request_merges_to_exact_totals(self):
        request = _request(shots=600, max_shots=256, seed=11)
        (outcome,) = execute_run_requests([request]).values()
        assert outcome.meta["shots"] == 600
        assert outcome.meta["chunks"] == 3
        assert sum(outcome.meta["counts"].values()) == 600
        assert sum(outcome.meta["probabilities"].values()) == pytest.approx(1.0)

    def test_store_probe_settles_resubmissions_as_cached(self, tmp_path):
        from repro.store.store import ExperimentStore

        store = ExperimentStore(tmp_path / "store")
        request = _request(seed=21)
        (first,) = execute_run_requests([request], store=store).values()
        assert first.status == "executed"
        (again,) = execute_run_requests([_request(seed=21)], store=store).values()
        assert again.status == "cached"
        assert again.meta["counts"] == first.meta["counts"]


class TestRoundContexts:
    """A round looks each context up once, and a context verifies once."""

    def test_each_context_is_built_once_per_round(self):
        # Nine contexts: one more than a ContextCache keeps warm.
        requests = [_request(trajectories=t, shots=64) for t in range(10, 19)]
        contexts = ContextCache()
        outcomes = execute_run_requests(requests, contexts=contexts)
        assert contexts.stats.snapshot() == {"builds": 9, "hits": 0}
        assert {outcome.status for outcome in outcomes.values()} == {"executed"}

    def test_a_mirror_context_verifies_once(self):
        from oracle import installed

        requests = [_request(benchmark="MIRROR:4@1", seed=seed) for seed in (1, 2, 3)]
        contexts = ContextCache()
        contexts.get(requests[0])  # building the workload draws its target too
        with installed() as calls:
            outcomes = execute_run_requests(requests, contexts=contexts)
        assert calls["mirror_target"] == 1
        assert len(outcomes) == 3
        assert all(outcome.meta["mirror_verified"] for outcome in outcomes.values())


# ---------------------------------------------------------------------------
# The daemon (in-process)
# ---------------------------------------------------------------------------


@pytest.fixture()
def service(tmp_path):
    svc = SweepService(
        str(tmp_path / "store"),
        str(tmp_path / "svc.sock"),
        queue_depth=16,
        tenant_quota=8,
        poll_interval_s=0.02,
    )
    svc.start()
    yield svc
    svc.close()


class TestDaemon:
    def test_two_concurrent_clients_pack_and_match_serial(self, service, tmp_path):
        """The e2e acceptance path: two clients, packed batches, bit-identity."""
        from repro.runtime.tasks import run_task

        client_a = ServiceClient(service.socket_path)
        client_b = ServiceClient(service.socket_path)
        service.pause()
        results: dict = {}

        def submit_many(client, tenant, seeds):
            ids = [
                client.submit_run({**BASE, "seed": seed}, tenant=tenant)
                for seed in seeds
            ]
            results[tenant] = [client.wait(j, timeout_s=120) for j in ids]

        threads = [
            threading.Thread(target=submit_many, args=(client_a, "alice", range(4))),
            threading.Thread(target=submit_many, args=(client_b, "bob", range(2, 6))),
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30
        while service.queue.counts().get("queued", 0) < 8:
            assert time.monotonic() < deadline, service.queue.counts()
            time.sleep(0.02)
        service.resume()
        for t in threads:
            t.join(timeout=150)
            assert not t.is_alive()
        jobs = results["alice"] + results["bob"]
        assert all(job["status"] == "done" for job in jobs)
        stats = client_a.stats()
        # 8 requests (6 distinct seeds), one context: a single packed batch.
        assert stats["packing"]["requests"] == 8
        assert stats["packing"]["batches"] < stats["packing"]["requests"]
        # Overlapping seeds (2..3) deduplicate through the store *within* the
        # round? No — they execute in one round; both write the same key.
        # What must hold: every served record equals the serial run.
        for seed in range(6):
            serial_meta, _ = run_task(
                "benchmark_run", {**BASE, "seed": seed, "max_shots": service.max_shots}
            )
            record = service.store.get(RunRequest(**{**BASE, "seed": seed}).key)
            assert record is not None
            assert json.dumps(record.meta, sort_keys=True) == json.dumps(
                serial_meta, sort_keys=True
            )

    def test_identical_resubmission_is_all_store_hits(self, service):
        client = ServiceClient(service.socket_path)
        params = {**BASE, "seed": 31}
        first = client.wait(client.submit_run(params), timeout_s=120)
        assert first["result"]["status"] == "executed"
        again = client.wait(client.submit_run(params), timeout_s=120)
        assert again["result"]["status"] == "cached"
        assert again["result"]["key"] == first["result"]["key"]

    def test_queue_full_and_quota_are_structured_rejections(self, tmp_path):
        svc = SweepService(
            str(tmp_path / "bp-store"),
            str(tmp_path / "bp.sock"),
            queue_depth=2,
            tenant_quota=2,
            poll_interval_s=0.02,
        )
        svc.start()
        try:
            client = ServiceClient(svc.socket_path)
            svc.pause()
            time.sleep(0.05)
            client.submit_run({**BASE, "seed": 41}, tenant="alice")
            client.submit_run({**BASE, "seed": 42}, tenant="bob")
            with pytest.raises(ServiceError) as excinfo:
                client.submit_run({**BASE, "seed": 43}, tenant="carol")
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.retry_after_s > 0
            # Quota: alice already holds 1 of her 2 slots... fill and overflow.
            svc.queue.tenant_quota = 1
            with pytest.raises(ServiceError) as excinfo:
                client.submit_run({**BASE, "seed": 44}, tenant="alice")
            assert excinfo.value.code in ("queue_full", "quota_exceeded")
        finally:
            svc.close()

    def test_submit_validates_at_admission_time(self, service):
        client = ServiceClient(service.socket_path)
        with pytest.raises(ServiceError, match="unknown task kind"):
            client.submit_run({"device": "ibmq_rome"}, kind="nope")
        with pytest.raises(ServiceError, match="missing params"):
            client.submit_run({"device": "ibmq_rome"})
        with pytest.raises(ServiceError, match="unknown benchmark"):
            client.submit_run({**BASE, "seed": 0, "benchmark": "NOPE-9"})
        with pytest.raises(ServiceError, match="seed"):
            client.submit_run({**BASE, "seed": -1})
        with pytest.raises(ServiceError, match="sweeps"):
            client.request({"op": "submit", "job": {"type": "sweep"}})
        with pytest.raises(ServiceError, match="unknown op"):
            client.request({"op": "frobnicate"})

    def test_overlong_request_line_is_a_bad_request(self, service):
        # No newline ever arrives: the handler must stop reading at the bound.
        with socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM) as sock:
            sock.settimeout(5.0)
            sock.connect(service.socket_path)
            sock.sendall(b"x" * (MAX_REQUEST_BYTES + 1))
            reply = json.loads(sock.makefile("rb").readline())
        assert (reply["ok"], reply["error"]) == (False, "bad_request")
        assert ServiceClient(service.socket_path).ping()["ok"]

    def test_stalled_request_line_is_disconnected(self, service, monkeypatch, capsys):
        # The default bound is finite; shrink it so the stall is short.
        assert server_module._Handler.timeout == server_module.REQUEST_TIMEOUT_S
        assert 0 < server_module.REQUEST_TIMEOUT_S < float("inf")
        monkeypatch.setattr(server_module._Handler, "timeout", 0.5)
        with socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM) as sock:
            sock.settimeout(10.0)
            sock.connect(service.socket_path)
            sock.sendall(b'{"op": "pi')  # half a request, then silence
            start = time.monotonic()
            assert sock.recv(1) == b""  # the server hung up
            assert time.monotonic() - start < 5.0
        assert ServiceClient(service.socket_path).ping()["ok"]
        assert "Traceback" not in capsys.readouterr().err

    def test_client_leaving_before_the_reply_is_quiet(self, service, capsys):
        for _ in range(3):
            with socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM) as sock:
                sock.connect(service.socket_path)
                sock.sendall(b'{"op": "stats"}\n')
        assert ServiceClient(service.socket_path).ping()["ok"]
        time.sleep(0.2)  # let the abandoned handlers finish their sends
        assert "Traceback" not in capsys.readouterr().err

    def test_cancel_queued_job_never_runs(self, service):
        client = ServiceClient(service.socket_path)
        service.pause()
        time.sleep(0.05)
        job_id = client.submit_run({**BASE, "seed": 51})
        cancelled = client.cancel(job_id)
        assert cancelled["status"] == "cancelled"
        service.resume()
        job = client.wait(job_id, timeout_s=30)
        assert job["status"] == "cancelled"
        assert "result" not in job or "key" not in (job.get("result") or {})

    def test_sweep_job_streams_partial_and_settles(self, service):
        client = ServiceClient(service.socket_path)
        job_id = client.submit_sweep(
            [
                {
                    "name": "svc-sweep",
                    "kind": "benchmark_run",
                    "devices": ["ibmq_rome"],
                    "workloads": ["GHZ:3"],
                    "seeds": [61, 62],
                    "params": {"shots": 256},
                }
            ],
            name="svc-sweep",
        )
        job = client.wait(job_id, timeout_s=150)
        assert job["status"] == "done"
        assert job["result"]["counts"]["failed"] == 0
        summary = client.partial(job_id)
        assert summary["coverage"]["stored"] == summary["coverage"]["total"] == 2
        # The journal checkpoints the settled job: once its round commits,
        # the daemon's segment holds the job's terminal line.
        assert service.wait_idle()
        (segment,) = service.store.jobs_dir.glob("journal-*.jsonl")
        lines = [json.loads(line) for line in segment.read_text().splitlines()]
        (terminal,) = [
            line for line in lines if line["job_id"] == job_id and line["event"] == "settle"
        ]
        assert terminal["status"] == "done"

    def test_stats_op_keeps_every_store_write(self, service):
        """A run job, a 3-task sweep, a figure1 task and a cached resubmission:
        the sweep's orchestrator must not zero the daemon's store counters."""
        client = ServiceClient(service.socket_path)
        params = {**BASE, "seed": 71}
        job_ids = [
            client.submit_run(params),
            client.submit_sweep(
                [
                    {
                        "name": "stats-sweep",
                        "kind": "benchmark_run",
                        "devices": ["ibmq_rome"],
                        "workloads": ["GHZ:3"],
                        "seeds": [72, 73],
                        "params": {"shots": 256},
                    }
                ],
            ),
            client.submit_run(
                {"device": "ibmq_london", "seed": 2, "shots": 128}, kind="figure1"
            ),
        ]
        for job_id in job_ids:
            assert client.wait(job_id, timeout_s=150)["status"] == "done"
        again = client.wait(client.submit_run(params), timeout_s=120)
        assert again["result"]["status"] == "cached"

        stats = client.stats()
        assert stats["store"]["writes"] == 5  # 1 run + 2 sweep leaves + summary + figure1
        assert stats["jobs_executed"] == 4
        assert stats["queue"]["counts"] == {"done": 4}
        assert stats["queue"]["submitted"] == 4
        # Every key perfbench/run.py reads from the stats op.
        assert stats["uptime_s"] >= 0.0
        assert (stats["packing"]["rounds"], stats["packing"]["requests"]) == (4, 3)
        assert {"batches", "chunks"} <= set(stats["packing"])
        assert stats["contexts"] == {"builds": 1, "hits": 2}
        assert {
            "memory_hits",
            "disk_hits",
            "federated_hits",
            "probe_hits",
            "misses",
            "probe_misses",
        } <= set(stats["store"])

    def test_refuses_to_evict_a_live_daemon(self, service, tmp_path):
        with pytest.raises(RuntimeError, match="already serving"):
            SweepService(str(tmp_path / "other"), service.socket_path).start()

    def test_stale_socket_is_reclaimed(self, tmp_path):
        path = tmp_path / "stale.sock"
        stale = socket_module.socket(socket_module.AF_UNIX)
        stale.bind(str(path))
        stale.close()  # dead daemon: path exists, nobody listening
        svc = SweepService(str(tmp_path / "store2"), str(path))
        svc.start()
        try:
            assert ServiceClient(str(path)).ping()["ok"]
        finally:
            svc.close()


# ---------------------------------------------------------------------------
# CLI: flag validation, report exit codes, full subprocess round trip
# ---------------------------------------------------------------------------


class TestCLIValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--smoke", "--workers", "0"],
            ["sweep", "--smoke", "--workers", "-2"],
            ["sweep", "--smoke", "--max-tasks", "0"],
            ["sweep", "--smoke", "--lease-ttl", "0"],
            ["sweep", "--smoke", "--lease-ttl", "-1.5"],
            ["sweep", "--smoke", "--lease-pack", "0"],
            ["serve", "--socket", "/tmp/x.sock", "--queue-depth", "0"],
            ["serve", "--socket", "/tmp/x.sock", "--tenant-quota", "-1"],
            ["serve", "--socket", "/tmp/x.sock", "--max-shots", "0"],
            ["serve", "--socket", "/tmp/x.sock", "--max-experiments", "nope"],
            ["submit", "--socket", "/tmp/x.sock", "--timeout", "0"],
        ],
    )
    def test_resource_flags_reject_non_positive_at_parse_time(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "positive" in capsys.readouterr().err

    def test_report_unknown_sweep_exits_nonzero_listing_names(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        assert main(["sweep", "--smoke", "--store", store, "--quiet"]) == 0
        capsys.readouterr()
        rc = main(["report", "--store", store, "--sweep", "no-such-sweep"])
        err = capsys.readouterr().err
        assert rc == 1
        assert "no-such-sweep" in err
        assert "smoke" in err  # the available journal is listed
        # And the empty-store case is also a clean non-zero, not a traceback.
        assert main(["report", "--store", str(tmp_path / "empty")]) == 1

    def test_submit_against_no_daemon_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "submit",
                "--socket",
                str(tmp_path / "nobody.sock"),
                "--param",
                "device=ibmq_rome",
                "--param",
                "benchmark=GHZ:3",
            ]
        )
        assert rc == 1
        assert "repro serve" in capsys.readouterr().err


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


class TestServeSubprocess:
    def test_daemon_round_trip_with_sigterm(self, tmp_path):
        """The CI serve-smoke scenario against the real process."""
        store = str(tmp_path / "store")
        sock = str(tmp_path / "serve.sock")
        env = _subprocess_env()
        daemon = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--store",
                store,
                "--socket",
                sock,
                "--quiet",
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(sock):
                assert daemon.poll() is None, daemon.stderr.read().decode()
                assert time.monotonic() < deadline
                time.sleep(0.05)

            def submit_cmd(*extra):
                return [
                    sys.executable,
                    "-m",
                    "repro",
                    "submit",
                    "--socket",
                    sock,
                    "--wait",
                    *extra,
                ]

            run_cmd = submit_cmd(
                "--param",
                "device=ibmq_rome",
                "--param",
                "benchmark=GHZ:3",
                "--param",
                "shots=256",
                "--param",
                "seed=5",
                "--tenant",
                "cli-a",
            )
            spec = tmp_path / "spec.json"
            spec.write_text(
                json.dumps(
                    {
                        "name": "serve-smoke",
                        "kind": "benchmark_run",
                        "devices": ["ibmq_rome"],
                        "workloads": ["GHZ:3"],
                        "seeds": [71],
                        "params": {"shots": 256},
                    }
                ),
                encoding="utf-8",
            )
            sweep_cmd = submit_cmd("--spec", str(spec), "--tenant", "cli-b")
            clients = [
                subprocess.Popen(
                    cmd, env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                )
                for cmd in (run_cmd, sweep_cmd)
            ]
            outputs = []
            for proc in clients:
                out, err = proc.communicate(timeout=300)
                assert proc.returncode == 0, err.decode()
                outputs.append(out.decode())
            assert "done" in outputs[0]
            assert "serve-smoke" in outputs[1]
            # Identical resubmission: pure store read.
            warm = subprocess.run(
                run_cmd, env=env, cwd=REPO_ROOT, capture_output=True, timeout=300
            )
            assert warm.returncode == 0, warm.stderr.decode()
            assert "cached" in warm.stdout.decode()
            # Graceful SIGTERM: exit 0, socket released.
            daemon.send_signal(signal.SIGTERM)
            daemon.wait(timeout=60)
            assert daemon.returncode == 0, daemon.stderr.read().decode()
            assert not os.path.exists(sock)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30)
            daemon.stdout.close()
            daemon.stderr.close()

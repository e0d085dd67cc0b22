"""Distributed sweep execution: leases, work stealing, federation, `--join`.

Covers the work-stealing layer end-to-end: lease mutual exclusion and the
expiry/steal protocol in isolation, two orchestrators draining one sweep
cooperatively (no task executed twice, store bit-identical to a serial run),
deterministic crash recovery (a worker dies holding leases, the resumed
drain re-leases and finishes), the same races across real ``repro sweep
--join`` subprocesses, and the streamed mid-sweep aggregation behind
``repro report --partial``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.runtime import LeaseManager, SweepOrchestrator, SweepSpec, expand_sweep
from repro.runtime.orchestrator import partial_summary
from repro.runtime.tasks import TaskKind, register_task_kind
from repro.store import ExperimentStore

REPO_ROOT = Path(__file__).resolve().parents[1]


def _execute_sleepy(params, store):
    time.sleep(float(params.get("sleep_s", 0.0)))
    seed = int(params["seed"])
    return (
        {"kind": "_sleepy", "seed": seed, "value": seed * seed},
        {"samples": np.arange(seed, seed + 4, dtype=np.int64)},
    )


register_task_kind(
    TaskKind(
        name="_sleepy",
        axes=("seed",),
        defaults={"sleep_s": 0.0},
        execute=_execute_sleepy,
        key_extras=lambda params: {},
    )
)


def _sleepy_specs(n: int = 6, sleep_s: float = 0.02, tag: int = 0):
    """An embarrassingly-parallel sweep of ``n`` cheap leaves + summary."""
    return [
        SweepSpec(
            name=f"dist/sleepy{tag}",
            kind="_sleepy",
            seeds=tuple(range(100 + tag * 1000, 100 + tag * 1000 + n)),
            params={"sleep_s": sleep_s},
        )
    ]


def _assert_stores_identical(store_a, store_b, tasks):
    for task in tasks:
        a = store_a.get(task.key)
        b = store_b.get(task.key)
        assert a is not None and b is not None, task.task_id
        assert json.dumps(a.meta, sort_keys=True) == json.dumps(
            b.meta, sort_keys=True
        )
        assert sorted(a.arrays) == sorted(b.arrays)
        for name in a.arrays:
            assert np.array_equal(a.arrays[name], b.arrays[name])


class TestLeaseManager:
    def test_claim_is_exclusive_across_workers(self, tmp_path):
        a = LeaseManager(tmp_path, "drain", worker_id="a", ttl_s=30.0)
        b = LeaseManager(tmp_path, "drain", worker_id="b", ttl_s=30.0)
        try:
            assert a.try_claim("k1", "task-1")
            assert not b.try_claim("k1", "task-1")
            assert b.holder("k1")["worker"] == "a"
            a.release("k1")
            assert b.try_claim("k1", "task-1")
            assert a.holder("k1")["worker"] == "b"
        finally:
            a.close()
            b.close()

    def test_sweeps_get_disjoint_lease_dirs(self, tmp_path):
        a = LeaseManager(tmp_path, "drain-one", worker_id="a")
        b = LeaseManager(tmp_path, "drain-two", worker_id="b")
        try:
            assert a.try_claim("k1") and b.try_claim("k1")
        finally:
            a.close()
            b.close()

    def test_abandoned_lease_expires_and_is_stolen(self, tmp_path):
        a = LeaseManager(
            tmp_path, "drain", worker_id="a", ttl_s=0.2, heartbeat_interval_s=0.05
        )
        assert a.try_claim("k1", "task-1")
        a.close(abandon=True)  # the deterministic "worker died" simulation
        b = LeaseManager(tmp_path, "drain", worker_id="b", ttl_s=0.2)
        try:
            assert not b.try_claim("k1")  # heartbeat still fresh
            time.sleep(0.35)
            assert b.is_expired("k1")
            assert b.try_claim("k1", "task-1")  # stale lease broken + re-claimed
            assert b.holder("k1")["worker"] == "b"
        finally:
            b.close()

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        a = LeaseManager(
            tmp_path, "drain", worker_id="a", ttl_s=0.3, heartbeat_interval_s=0.05
        )
        b = LeaseManager(tmp_path, "drain", worker_id="b", ttl_s=0.3)
        try:
            assert a.try_claim("k1", "task-1")
            time.sleep(0.8)  # several TTLs — the heartbeat thread re-stamps
            assert not b.is_expired("k1")
            assert not b.try_claim("k1")
        finally:
            a.close()
            b.close()

    def test_expired_steal_has_exactly_one_winner(self, tmp_path):
        a = LeaseManager(
            tmp_path, "drain", worker_id="dead", ttl_s=0.1, heartbeat_interval_s=0.02
        )
        assert a.try_claim("k1", "task-1")
        a.close(abandon=True)
        time.sleep(0.3)
        winners = []
        barrier = threading.Barrier(8)

        def racer(i):
            manager = LeaseManager(tmp_path, "drain", worker_id=f"racer-{i}")
            barrier.wait()
            if manager.try_claim("k1", "task-1"):
                winners.append(i)
            manager.close(abandon=True)  # keep the winner's lease in place

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1

    def test_late_stealer_never_moves_a_live_lease(self, tmp_path):
        # Force the interleaving behind the race above: b reads the dead
        # lease as stale, then a rival steals and re-claims the name before
        # b acts, and a third claimant arrives while b is mid-break.
        dead = LeaseManager(tmp_path, "drain", worker_id="dead", ttl_s=0.05)
        assert dead.try_claim("k1", "task-1")
        dead.close(abandon=True)
        time.sleep(0.15)
        a = LeaseManager(tmp_path, "drain", worker_id="a")
        c = LeaseManager(tmp_path, "drain", worker_id="c")
        reads = []

        class LateStealer(LeaseManager):
            def _read(self, path):
                info = LeaseManager._read(path)
                reads.append(path.name)
                if len(reads) == 1:
                    assert a.try_claim("k1", "task-1")
                elif len(reads) == 2:
                    assert not c.try_claim("k1", "task-1")
                return info

        b = LateStealer(tmp_path, "drain", worker_id="b")
        try:
            assert not b.try_claim("k1", "task-1")
            assert len(reads) >= 2
            assert b.holder("k1")["worker"] == "a"
            assert a.held == ["k1"] and not b.held and not c.held
        finally:
            for manager in (a, b, c):
                manager.close()

    def test_stealer_never_unlinks_a_claim_made_after_the_break(self, tmp_path):
        # b reads the dead lease as stale; a rival breaks it first; b then
        # finds the name empty under the break lock, and the rival's claim
        # lands right after b's re-read.
        dead = LeaseManager(tmp_path, "drain", worker_id="dead", ttl_s=0.05)
        assert dead.try_claim("k1", "task-1")
        dead.close(abandon=True)
        time.sleep(0.15)
        rival = LeaseManager(tmp_path, "drain", worker_id="rival")
        reads = []

        class LateStealer(LeaseManager):
            def _read(self, path):
                info = LeaseManager._read(path)
                reads.append(path.name)
                if len(reads) == 1:
                    assert rival._break_if_expired(path)
                elif len(reads) == 2:
                    assert info is None
                    assert rival.try_claim("k1", "task-1")
                return info

        b = LateStealer(tmp_path, "drain", worker_id="b")
        try:
            assert not b.try_claim("k1", "task-1")
            assert len(reads) == 2
            assert b.holder("k1")["worker"] == "rival"
            assert rival.held == ["k1"] and not b.held
        finally:
            for manager in (rival, b):
                manager.close()

    def test_abandoned_break_lock_expires(self, tmp_path):
        a = LeaseManager(
            tmp_path, "drain", worker_id="a", ttl_s=0.1, heartbeat_interval_s=0.02
        )
        assert a.try_claim("k1", "task-1")
        a.close(abandon=True)
        lock = a._path("k1").with_name("k1.lease.break")
        lock.write_bytes(b"")  # a stealer died mid-break
        time.sleep(0.3)
        b = LeaseManager(tmp_path, "drain", worker_id="b", ttl_s=0.1)
        try:
            assert not b.try_claim("k1", "task-1")  # clears the dead lock
            assert not lock.exists()
            assert b.try_claim("k1", "task-1")
            assert b.holder("k1")["worker"] == "b"
        finally:
            b.close()

    def test_unreadable_lease_expires_by_mtime(self, tmp_path):
        a = LeaseManager(tmp_path, "drain", worker_id="a", ttl_s=60.0)
        path = a._path("k1")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"{ not json")
        old = time.time() - 3600.0
        os.utime(path, (old, old))
        try:
            assert a.is_expired("k1")
            assert a.try_claim("k1", "task-1")
        finally:
            a.close()

    def test_close_releases_everything_held(self, tmp_path):
        a = LeaseManager(tmp_path, "drain", worker_id="a")
        assert a.try_claim("k1") and a.try_claim("k2")
        assert a.held == ["k1", "k2"]
        a.close()
        assert a.holder("k1") is None and a.holder("k2") is None

    def test_crash_env_abandons_leases(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_ABANDON_LEASES", "1")
        a = LeaseManager(tmp_path, "drain", worker_id="a")
        assert a.try_claim("k1")
        a.close()
        assert a.holder("k1") is not None  # left behind, like a killed worker


class TestJoinDrain:
    def test_two_joined_orchestrators_no_duplicate_execution(self, tmp_path):
        specs = _sleepy_specs(n=6, tag=1)
        tasks = expand_sweep(specs)

        serial_store = ExperimentStore(tmp_path / "serial")
        SweepOrchestrator(serial_store).run(specs, name="ref")

        root = tmp_path / "shared"
        reports = {}

        def drain(worker: str) -> None:
            orchestrator = SweepOrchestrator(
                ExperimentStore(root),
                join=True,
                lease_ttl_s=10.0,
                poll_interval_s=0.02,
                worker_id=worker,
            )
            reports[worker] = orchestrator.run(specs, name="joined")

        threads = [
            threading.Thread(target=drain, args=(w,)) for w in ("w1", "w2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for report in reports.values():
            assert not report.failed and not report.pending and not report.blocked
        executed = [
            t.task_id for report in reports.values() for t in report.executed
        ]
        # Every task ran exactly once, somewhere; the lease layer guarantees
        # the two drains never executed the same task.
        assert sorted(executed) == sorted(t.task_id for t in tasks)
        _assert_stores_identical(ExperimentStore(root), serial_store, tasks)

    def test_task_finished_between_probe_and_claim_is_not_rerun(self, tmp_path):
        # Force the interleaving behind the race above: right after this
        # joiner's first store miss, another joiner drains the whole sweep
        # (checkpoint, then release), so the late joiner's claim succeeds
        # on a task that is already done.
        specs = _sleepy_specs(n=2, tag=5)
        tasks = expand_sweep(specs)
        root = tmp_path / "shared"
        rival_reports = []

        class RacedStore(ExperimentStore):
            def contains(self, key):
                present = super().contains(key)
                if not present and not rival_reports:
                    rival_reports.append(
                        SweepOrchestrator(
                            ExperimentStore(root), join=True, worker_id="rival"
                        ).run(specs, name="rival")
                    )
                return present

        late = SweepOrchestrator(RacedStore(root), join=True, worker_id="late").run(
            specs, name="late"
        )
        assert sorted(t.task_id for t in rival_reports[0].executed) == sorted(
            t.task_id for t in tasks
        )
        assert not late.executed and not late.failed and not late.pending
        assert sorted(t.task_id for t in late.cached) == sorted(
            t.task_id for t in tasks
        )

    def test_crashed_worker_is_re_leased_and_resumed(self, tmp_path, monkeypatch):
        specs = _sleepy_specs(n=4, tag=2)
        tasks = expand_sweep(specs)

        serial_store = ExperimentStore(tmp_path / "serial")
        SweepOrchestrator(serial_store).run(specs, name="ref")

        root = tmp_path / "shared"
        monkeypatch.setenv("REPRO_TEST_CRASH_AFTER_CLAIMS", "2")
        crashed = SweepOrchestrator(
            ExperimentStore(root), join=True, lease_ttl_s=0.3, worker_id="victim"
        ).run(specs, name="joined")
        monkeypatch.delenv("REPRO_TEST_CRASH_AFTER_CLAIMS")

        assert crashed.interrupted
        assert not crashed.executed  # died holding claims, before executing
        store = ExperimentStore(root)
        abandoned = list(store.leases_dir.glob("*/*.lease"))
        assert len(abandoned) >= 2  # the victim's leases survived its death

        time.sleep(0.45)  # let the abandoned heartbeats pass their TTL
        resumed = SweepOrchestrator(
            ExperimentStore(root), join=True, lease_ttl_s=0.3, worker_id="rescuer"
        ).run(specs, name="joined")
        assert not resumed.failed and not resumed.pending and not resumed.blocked
        assert len(resumed.executed) == len(tasks)
        _assert_stores_identical(ExperimentStore(root), serial_store, tasks)

    def test_mid_sweep_partial_aggregation(self, tmp_path):
        specs = _sleepy_specs(n=3, tag=3)
        store = ExperimentStore(tmp_path / "store")
        orchestrator = SweepOrchestrator(store)
        interrupted = orchestrator.run(specs, name="partial", max_executions=1)
        assert len(interrupted.executed) == 1

        journal = json.loads(
            next(iter(store.sweeps_dir.glob("*.json"))).read_text()
        )
        summary = partial_summary(store, journal["tasks"])
        assert summary["partial"] is True
        assert summary["coverage"] == {"stored": 1, "total": 3}
        (entry,) = summary["tasks"].values()
        assert entry["kind"] == "_sleepy"

        orchestrator.run(specs, name="partial")
        journal = json.loads(
            next(iter(store.sweeps_dir.glob("*.json"))).read_text()
        )
        summary = partial_summary(store, journal["tasks"])
        assert summary["partial"] is False
        assert summary["coverage"] == {"stored": 3, "total": 3}


def _spec_file(tmp_path: Path) -> Path:
    payload = {
        "name": "clijoin",
        "kind": "figure1",
        "devices": ["ibmq_london"],
        "cycles": [0],
        "seeds": [11, 12, 13],
        "params": {"shots": 128},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _sweep_cmd(spec: Path, store: Path, *extra: str) -> list:
    return [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        "--spec",
        str(spec),
        "--store",
        str(store),
        "--join",
        "--lease-ttl",
        "0.5",
        "--quiet",
        *extra,
    ]


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_TEST_CRASH_AFTER_CLAIMS", None)
    env.pop("REPRO_TEST_ABANDON_LEASES", None)
    return env


class TestCLIJoin:
    def test_two_join_processes_race_to_drain(self, tmp_path):
        spec = _spec_file(tmp_path)
        store_dir = tmp_path / "store"
        env = _subprocess_env()
        procs = [
            subprocess.Popen(
                _sweep_cmd(spec, store_dir),
                env=env,
                cwd=REPO_ROOT,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()

        # Per-worker journals merge to full coverage with no double execution.
        journals = [
            json.loads(path.read_text())
            for path in store_dir.glob("sweeps/*.json")
        ]
        assert len(journals) == 2
        executed = [
            task_id
            for journal in journals
            for task_id, entry in journal["tasks"].items()
            if entry["status"] == "executed"
        ]
        assert len(executed) == len(set(executed)) == 4  # 3 leaves + summary
        for journal in journals:
            assert all(
                entry["status"] in ("executed", "cached")
                for entry in journal["tasks"].values()
            )

        # Serial reference store is bit-identical.
        from repro.runtime.spec import load_spec

        tasks = expand_sweep(load_spec(str(spec)))
        serial_store = ExperimentStore(tmp_path / "serial")
        SweepOrchestrator(serial_store).run(load_spec(str(spec)), name="ref")
        _assert_stores_identical(ExperimentStore(store_dir), serial_store, tasks)

        # Warm re-run over the drained store must be a pure cache pass.
        warm = subprocess.run(
            _sweep_cmd(spec, store_dir, "--expect-all-cached"),
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=300,
        )
        assert warm.returncode == 0, warm.stderr.decode()

    def test_killed_join_process_is_resumed(self, tmp_path):
        spec = _spec_file(tmp_path)
        store_dir = tmp_path / "store"
        env = _subprocess_env()
        env["REPRO_TEST_CRASH_AFTER_CLAIMS"] = "1"
        crashed = subprocess.run(
            _sweep_cmd(spec, store_dir),
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=300,
        )
        assert crashed.returncode == 130  # died "interrupted", leases held
        assert list(store_dir.glob("leases/*/*.lease"))

        time.sleep(0.7)  # abandoned heartbeats pass their 0.5s TTL
        env = _subprocess_env()
        resumed = subprocess.run(
            _sweep_cmd(spec, store_dir),
            env=env,
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr.decode()

        from repro.runtime.spec import load_spec

        tasks = expand_sweep(load_spec(str(spec)))
        serial_store = ExperimentStore(tmp_path / "serial")
        SweepOrchestrator(serial_store).run(load_spec(str(spec)), name="ref")
        _assert_stores_identical(ExperimentStore(store_dir), serial_store, tasks)

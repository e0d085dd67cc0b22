"""One execution scope: one backend per (device, cycle), one ContextCache per runner.

* Task keys, tasks and execution contexts all use the process's backend for
  a (device, cycle) (:func:`repro.runtime.tasks.task_backend`), so a sweep
  generates each calibration once.
* An orchestrator or a daemon owns one
  :class:`~repro.service.requests.ContextCache` and runs every in-process
  task in it: the leaves of a ``benchmark_run`` sweep share one context, and
  the daemon's ``stats`` op counts them.  Records stay equal, in float hex,
  to a direct ``run_task`` call, which computes everything itself.
* A served run job builds its request, and resolves its key, once.
"""

from __future__ import annotations

import json
import sys

import pytest

from repro.runtime import tasks
from repro.runtime.orchestrator import SweepOrchestrator
from repro.runtime.spec import SweepSpec, expand_sweep
from repro.runtime.tasks import run_task, task_backend
from repro.service import ContextCache, RunRequest, ServiceClient, SweepService
from repro.service import requests as requests_module
from repro.store import ExperimentStore

GHZ3 = {"device": "ibmq_rome", "benchmark": "GHZ:3", "shots": 256}


def _hex(value):
    """``value`` with every float spelled in hex, for bit-exact comparison."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _hex(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hex(item) for item in value]
    return value


def _canonical(meta: dict) -> str:
    return json.dumps(_hex(meta), sort_keys=True)


@pytest.fixture()
def calibrations(monkeypatch):
    """Every ``generate_calibration`` call, as ``(device, cycle)``, from a
    cold backend and fingerprint memo."""
    from repro.hardware import calibration

    real = calibration.generate_calibration
    calls = []

    def spy(device, cycle=0, *args, **kwargs):
        calls.append((device.name, int(cycle)))
        return real(device, cycle, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "generate_calibration", None) is real:
            monkeypatch.setattr(module, "generate_calibration", spy)
    task_backend.cache_clear()
    tasks._calibration_fp.cache_clear()
    return calls


@pytest.fixture()
def context_builds(monkeypatch):
    """The benchmark of every ``ExecutionContext`` built."""
    builds = []
    real = requests_module.ExecutionContext

    class Counting(real):
        def __init__(self, backend, benchmark, trajectories):
            builds.append(str(benchmark))
            super().__init__(backend, benchmark, trajectories)

    monkeypatch.setattr(requests_module, "ExecutionContext", Counting)
    return builds


class TestOneBackendPerDeviceCycle:
    def test_a_sweep_generates_each_calibration_once(self, tmp_path, calibrations):
        specs = [
            SweepSpec(
                name="scope/runs",
                kind="benchmark_run",
                devices=("ibmq_rome",),
                cycles=(0, 1),
                workloads=("GHZ:3",),
                seeds=(1, 2),
                params={"shots": 256},
            ),
            SweepSpec(
                name="scope/scaling",
                kind="hardware_scaling",
                devices=("ibmq_rome",),
                cycles=(0, 1),
                workloads=("GHZ:3",),
                seeds=(1,),
                params={"shots": 256, "trajectories": 20},
            ),
        ]
        report = SweepOrchestrator(ExperimentStore(tmp_path / "store")).run(
            specs, name="scope"
        )
        assert len(report.executed) == 7  # six leaves and the summary
        assert sorted(calibrations) == [("ibmq_rome", 0), ("ibmq_rome", 1)]

    def test_contexts_run_on_the_task_backend(self, calibrations):
        backend = task_backend("ibmq_rome", 0)
        first = ContextCache().get(RunRequest(**GHZ3))
        second = ContextCache().get(RunRequest(**{**GHZ3, "benchmark": "BV-4"}))
        assert first.compiled.backend is backend
        assert second.compiled.backend is backend
        assert calibrations == [("ibmq_rome", 0)]


class TestOneContextCachePerRunner:
    def test_cli_benchmark_run_sweep_builds_one_context(self, tmp_path, context_builds):
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "cli-scope",
                    "kind": "benchmark_run",
                    "devices": ["ibmq_rome"],
                    "workloads": ["GHZ:3"],
                    "seeds": [1, 2, 3],
                    "params": {"shots": 256},
                }
            ),
            encoding="utf-8",
        )
        store = str(tmp_path / "store")
        assert main(["sweep", "--spec", str(spec), "--store", store, "--quiet"]) == 0
        assert context_builds == ["GHZ:3"]

    def test_daemon_sweep_jobs_use_the_warm_contexts(self, tmp_path, context_builds):
        sweeps = [
            {
                "name": f"scope-{first}",
                "kind": "benchmark_run",
                "devices": ["ibmq_rome"],
                "workloads": ["GHZ:3"],
                "seeds": [first, first + 1, first + 2],
                "params": {"shots": 256},
            }
            for first in (81, 84)
        ]
        service = SweepService(
            str(tmp_path / "store"), str(tmp_path / "svc.sock"), poll_interval_s=0.02
        )
        service.start()
        try:
            client = ServiceClient(service.socket_path)
            job_ids = [client.submit_sweep([sweep]) for sweep in sweeps]
            for job_id in job_ids:
                assert client.wait(job_id, timeout_s=150)["status"] == "done"
            stats = client.stats()
        finally:
            service.close()
        assert context_builds == ["GHZ:3"]
        assert stats["contexts"] == {"builds": 1, "hits": 5}
        leaves = [
            task
            for task in expand_sweep([SweepSpec.from_dict(sweep) for sweep in sweeps])
            if task.kind == "benchmark_run"
        ]
        assert len(leaves) == 6
        store = ExperimentStore(tmp_path / "store")
        for task in leaves:
            fresh, _ = run_task("benchmark_run", task.params)
            assert _canonical(store.get(task.key).meta) == _canonical(fresh)


class TestOneRequestPerServedRunJob:
    def test_a_run_job_resolves_its_key_once(self, tmp_path, monkeypatch):
        resolved = []
        real = tasks.resolve_task_key

        def spy(kind, params):
            resolved.append(kind)
            return real(kind, params)

        monkeypatch.setattr(tasks, "resolve_task_key", spy)
        service = SweepService(
            str(tmp_path / "store"), str(tmp_path / "svc.sock"), poll_interval_s=0.02
        )
        service.start()
        try:
            client = ServiceClient(service.socket_path)
            job_id = client.submit_run({**GHZ3, "seed": 5})
            job = client.wait(job_id, timeout_s=120)
            settled = service.queue.get(job_id)
        finally:
            service.close()
        assert job["status"] == "done"
        assert job["result"]["status"] == "executed"
        assert resolved == ["benchmark_run"]
        assert settled.request is None  # a settled job keeps no request

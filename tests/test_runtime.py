"""Tests for the sweep orchestrator, spec expansion and the repro CLI."""

from __future__ import annotations

import json

import pytest

from repro.runtime import (
    SweepOrchestrator,
    SweepSpec,
    expand_sweep,
    resolve_task_key,
    smoke_spec,
)
from repro.runtime.tasks import TaskKind, register_task_kind, summary_task
from repro.runtime.spec import TaskSpec, load_spec
from repro.store import ExperimentStore


def _tiny_specs(seed: int = 5):
    """A cheap two-leaf sweep (sub-second) used across the tests."""
    return [
        SweepSpec(
            name="tiny/figure1",
            kind="figure1",
            devices=("ibmq_london",),
            cycles=(0,),
            seeds=(seed,),
            params={"shots": 128},
        ),
        SweepSpec(
            name="tiny/drift",
            kind="drift",
            devices=("ibmq_rome",),
            seeds=(seed,),
            params={
                "cycles": [0, 1],
                "idle_qubit": 0,
                "link": [1, 2],
                "idle_ns": 900.0,
                "thetas": [1.5707963267948966],
                "shots": 128,
            },
        ),
    ]


class TestExpansion:
    def test_cartesian_product_over_used_axes(self):
        spec = SweepSpec(
            name="grid",
            kind="policy_comparison",
            devices=("ibmq_rome", "ibmq_london"),
            cycles=(0, 1),
            workloads=("ADDER-4",),
            seeds=(1, 2, 3),
        )
        tasks = expand_sweep(spec, summary=False)
        assert len(tasks) == 2 * 2 * 1 * 3
        assert len({t.key for t in tasks}) == len(tasks)
        assert len({t.task_id for t in tasks}) == len(tasks)

    def test_unused_axes_are_ignored(self):
        spec = SweepSpec(
            name="fig1",
            kind="figure1",
            devices=("ibmq_london",),
            cycles=(0,),
            workloads=("QFT-5", "BV-7"),  # figure1 has no workload axis
            seeds=(1,),
        )
        assert len(expand_sweep(spec, summary=False)) == 1

    def test_workload_axis_requires_workloads(self):
        spec = SweepSpec(name="bad", kind="policy_comparison", workloads=())
        with pytest.raises(ValueError, match="needs workloads"):
            expand_sweep(spec)

    def test_summary_depends_on_every_leaf(self):
        tasks = expand_sweep(_tiny_specs())
        summary = tasks[-1]
        assert summary.kind == "sweep_summary"
        assert set(summary.deps) == {t.task_id for t in tasks[:-1]}

    def test_unknown_kind_lists_registered_kinds(self):
        with pytest.raises(KeyError, match="registered kinds"):
            expand_sweep(SweepSpec(name="x", kind="no_such_kind"))

    def test_spec_json_roundtrip(self, tmp_path):
        specs = _tiny_specs()
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"name": "tiny", "sweeps": [s.to_dict() for s in specs]})
        )
        loaded = load_spec(str(path))
        assert [t.key for t in expand_sweep(loaded)] == [
            t.key for t in expand_sweep(specs)
        ]

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown sweep spec fields"):
            SweepSpec.from_dict({"name": "x", "kind": "figure1", "wat": 1})

    def test_fused_sweeps_dedup_by_key_not_axes(self):
        # Two sweeps over the same axes but different params are different
        # experiments: both must survive expansion, with distinct task ids.
        specs = [
            SweepSpec(
                name="a", kind="figure1", devices=("ibmq_london",),
                cycles=(0,), seeds=(1,), params={"shots": 128},
            ),
            SweepSpec(
                name="b", kind="figure1", devices=("ibmq_london",),
                cycles=(0,), seeds=(1,), params={"shots": 4096},
            ),
        ]
        tasks = expand_sweep(specs, summary=False)
        assert len(tasks) == 2
        assert len({t.key for t in tasks}) == 2
        assert len({t.task_id for t in tasks}) == 2
        # Identical sweeps still collapse to one task.
        assert len(expand_sweep([specs[0], specs[0]], summary=False)) == 1

    def test_expansion_is_key_stable(self):
        a = [t.key for t in expand_sweep(_tiny_specs())]
        b = [t.key for t in expand_sweep(_tiny_specs())]
        assert a == b
        assert [t.key for t in expand_sweep(smoke_spec())] == [
            t.key for t in expand_sweep(smoke_spec())
        ]


class TestOrchestrator:
    def test_cold_run_executes_and_stores_everything(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        report = SweepOrchestrator(store).run(_tiny_specs(), name="tiny")
        assert len(report.executed) == 3  # 2 leaves + summary
        assert not report.failed and not report.pending
        for task in report.tasks:
            assert store.contains(task.key)

    def test_warm_run_is_all_cache_hits(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        orchestrator = SweepOrchestrator(store)
        orchestrator.run(_tiny_specs(), name="tiny")
        report = orchestrator.run(_tiny_specs(), name="tiny")
        assert len(report.executed) == 0
        assert len(report.cached) == 3

    def test_interrupt_and_resume_without_recomputation(self, tmp_path):
        # Uninterrupted reference run.
        ref_store = ExperimentStore(tmp_path / "ref")
        SweepOrchestrator(ref_store).run(_tiny_specs(), name="tiny")

        store = ExperimentStore(tmp_path / "store")
        orchestrator = SweepOrchestrator(store)
        first = orchestrator.run(_tiny_specs(), name="tiny", max_executions=1)
        assert len(first.executed) == 1
        assert len(first.pending) == 2

        resumed = orchestrator.run(_tiny_specs(), name="tiny")
        assert len(resumed.cached) == 1  # the interrupted run's work survived
        assert len(resumed.executed) == 2
        assert not resumed.pending

        # The resumed store holds bit-identical payloads to the reference.
        for task in resumed.tasks:
            a = store.get(task.key)
            b = ref_store.get(task.key)
            assert json.dumps(a.meta, sort_keys=True) == json.dumps(
                b.meta, sort_keys=True
            )

    def test_recompute_reproduces_identical_records(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        orchestrator = SweepOrchestrator(store)
        orchestrator.run(_tiny_specs(), name="tiny")
        before = {t.key: store.get(t.key).meta for t in expand_sweep(_tiny_specs())}
        report = orchestrator.run(_tiny_specs(), name="tiny", recompute=True)
        assert len(report.executed) == 3
        for key, meta in before.items():
            assert json.dumps(store.get(key).meta, sort_keys=True) == json.dumps(
                meta, sort_keys=True
            )

    def test_failed_task_blocks_dependents_not_siblings(self, tmp_path):
        register_task_kind(
            TaskKind(
                name="_always_fails",
                axes=("seed",),
                defaults={},
                execute=lambda params, store: (_ for _ in ()).throw(
                    RuntimeError("boom")
                ),
                key_extras=lambda p: {},
            )
        )
        ok = TaskSpec(
            kind="figure1",
            params={"device": "ibmq_london", "cycle": 0, "seed": 2, "shots": 128},
            task_id="ok",
            key=resolve_task_key(
                "figure1",
                {"device": "ibmq_london", "cycle": 0, "seed": 2, "shots": 128},
            ),
        )
        bad = TaskSpec(
            kind="_always_fails",
            params={"seed": 1},
            task_id="bad",
            key=resolve_task_key("_always_fails", {"seed": 1}),
        )
        summary = summary_task([ok, bad])
        store = ExperimentStore(tmp_path / "store")
        report = SweepOrchestrator(store).run([ok, bad, summary], name="partial")
        statuses = {t.task_id: t.status for t in report.tasks}
        assert statuses == {
            "ok": "executed",
            "bad": "failed",
            "sweep_summary": "blocked",
        }
        assert "boom" in [t for t in report.failed][0].error
        assert store.contains(ok.key)
        assert not store.contains(bad.key)

    def test_corrupt_record_is_recomputed_on_resume(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        orchestrator = SweepOrchestrator(store)
        orchestrator.run(_tiny_specs(), name="tiny")
        victim = expand_sweep(_tiny_specs())[0]
        store._memory.clear()
        store._manifest_path(victim.key).write_text("{ damaged", encoding="utf-8")
        report = orchestrator.run(_tiny_specs(), name="tiny")
        statuses = {t.task_id: t.status for t in report.tasks}
        assert statuses[victim.task_id] == "executed"  # recomputed, not skipped
        assert store.get(victim.key) is not None

    def test_journal_checkpoints_statuses(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        SweepOrchestrator(store).run(_tiny_specs(), name="tiny")
        journals = list(store.sweeps_dir.glob("*.json"))
        assert len(journals) == 1
        payload = json.loads(journals[0].read_text())
        assert payload["name"] == "tiny"
        assert all(
            entry["status"] == "executed" for entry in payload["tasks"].values()
        )

    def test_worker_pool_run_matches_serial(self, tmp_path):
        serial_store = ExperimentStore(tmp_path / "serial")
        SweepOrchestrator(serial_store).run(_tiny_specs(), name="tiny")
        pooled_store = ExperimentStore(tmp_path / "pooled")
        report = SweepOrchestrator(pooled_store, n_workers=2).run(
            _tiny_specs(), name="tiny"
        )
        assert not report.failed
        for spec in expand_sweep(_tiny_specs()):
            a = serial_store.get(spec.key)
            b = pooled_store.get(spec.key)
            assert json.dumps(a.meta, sort_keys=True) == json.dumps(
                b.meta, sort_keys=True
            )


class TestCLI:
    def test_sweep_smoke_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        store_arg = str(tmp_path / "store")
        assert main(["sweep", "--smoke", "--store", store_arg, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "cache hits: 0/" in out
        assert (
            main(
                [
                    "sweep",
                    "--smoke",
                    "--store",
                    store_arg,
                    "--quiet",
                    "--expect-all-cached",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "(100%)" in out

    def test_expect_all_cached_fails_on_cold_store(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep",
                "--smoke",
                "--store",
                str(tmp_path / "cold"),
                "--quiet",
                "--expect-all-cached",
            ]
        )
        assert code == 1

    def test_run_ls_report_gc(self, tmp_path, capsys):
        from repro.cli import main

        store_arg = str(tmp_path / "store")
        assert (
            main(
                [
                    "run",
                    "--store",
                    store_arg,
                    "--kind",
                    "figure1",
                    "--json",
                    '{"device": "ibmq_london", "cycle": 0, "seed": 2, "shots": 128}',
                ]
            )
            == 0
        )
        assert "executed" in capsys.readouterr().out
        # Same parameters: now a cache hit.
        assert (
            main(
                [
                    "run",
                    "--store",
                    store_arg,
                    "--kind",
                    "figure1",
                    "--param",
                    "device=ibmq_london",
                    "--param",
                    "cycle=0",
                    "--param",
                    "seed=2",
                    "--param",
                    "shots=128",
                ]
            )
            == 0
        )
        assert "cached" in capsys.readouterr().out

        assert main(["ls", "--store", store_arg, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "store.writes" in out
        assert "process." not in out

        assert main(["sweep", "--smoke", "--store", store_arg, "--quiet"]) == 0
        capsys.readouterr()
        assert main(["report", "--store", store_arg]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "sweep_summary" in out

        assert main(["gc", "--store", store_arg, "--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out

    def test_sweep_requires_exactly_one_source(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["sweep", "--store", str(tmp_path)])


class TestHardwareScalingKind:
    """The device-scale task kind and the heavy-hex device axis."""

    def test_run_task_produces_scaling_record(self, tmp_path):
        from repro.runtime.tasks import run_task

        store = ExperimentStore(tmp_path / "store")
        params = {
            "device": "ibmq_rome",
            "benchmark": "GHZ-5",
            "seed": 3,
            "shots": 128,
            "trajectories": 20,
        }
        meta, arrays = run_task("hardware_scaling", params, store)
        assert meta["kind"] == "hardware_scaling"
        (row,) = meta["rows"]
        assert row["device"] == "ibmq_rome"
        assert row["num_qubits"] == 5
        assert row["benchmark"] == "GHZ-5"
        assert 0.0 <= row["fidelity"] <= 1.0
        assert row["engine"] in ("density_matrix", "trajectories")
        assert row["num_swaps"] >= 0
        assert row["transpile_s"] > 0

    def test_heavy_hex_devices_resolve_task_keys(self):
        key_named = resolve_task_key(
            "hardware_scaling",
            {"device": "ibm_brooklyn", "benchmark": "QFT-6A", "seed": 0},
        )
        key_param = resolve_task_key(
            "hardware_scaling",
            {"device": "heavy_hex:3", "benchmark": "QFT-6A", "seed": 0},
        )
        # Same topology but distinct specs (name, error profile) => new keys.
        assert key_named != key_param
        assert key_named == resolve_task_key(
            "hardware_scaling",
            {"device": "ibm_brooklyn", "benchmark": "QFT-6A", "seed": 0},
        )

    def test_sweep_expands_across_device_family(self):
        spec = SweepSpec(
            name="family",
            kind="hardware_scaling",
            devices=("ibmq_toronto", "ibm_brooklyn", "heavy_hex:5"),
            workloads=("QFT-6A",),
            seeds=(0,),
        )
        tasks = expand_sweep(spec, summary=False)
        assert len(tasks) == 3
        assert len({t.key for t in tasks}) == 3

    def test_smoke_spec_includes_heavy_hex_leaf(self):
        specs = smoke_spec()
        kinds = {spec.kind for spec in specs}
        assert "hardware_scaling" in kinds
        scaling = next(s for s in specs if s.kind == "hardware_scaling")
        assert "ibm_washington" in scaling.devices

    def test_study_reads_through_store(self, tmp_path):
        from repro.analysis.scaling import hardware_scaling_study

        store = ExperimentStore(tmp_path / "store")
        kwargs = dict(
            device_names=("ibmq_rome",),
            benchmark="GHZ-5",
            shots=128,
            trajectories=20,
            seed=11,
            store=store,
        )
        cold = hardware_scaling_study(**kwargs)
        hits_before = store.stats.get("memory_hits", 0) + store.stats.get(
            "disk_hits", 0
        )
        warm = hardware_scaling_study(**kwargs)
        hits_after = store.stats.get("memory_hits", 0) + store.stats.get(
            "disk_hits", 0
        )
        assert hits_after > hits_before
        assert [r.device for r in warm] == [r.device for r in cold]
        assert warm[0].fidelity == cold[0].fidelity

    def test_task_kind_and_api_share_point_records(self, tmp_path):
        from repro.analysis.scaling import hardware_scaling_study
        from repro.runtime.tasks import run_task

        store = ExperimentStore(tmp_path / "store")
        params = {
            "device": "ibmq_rome",
            "benchmark": "GHZ-5",
            "seed": 5,
            "shots": 128,
            "trajectories": 20,
        }
        run_task("hardware_scaling", params, store)
        hits_before = store.stats.get("memory_hits", 0) + store.stats.get(
            "disk_hits", 0
        )
        # The API study with the same knobs must be served from the same
        # fine-grained record the CLI task populated.
        (record,) = hardware_scaling_study(
            device_names=("ibmq_rome",),
            benchmark="GHZ-5",
            shots=128,
            trajectories=20,
            seed=5,
            store=store,
        )
        hits_after = store.stats.get("memory_hits", 0) + store.stats.get(
            "disk_hits", 0
        )
        assert hits_after > hits_before
        assert record.device == "ibmq_rome"


class TestContinuousScheduling:
    """Completion-order settling, journal throttling, blocked reporting."""

    @staticmethod
    def _register_staggered():
        import time as _time

        import numpy as np

        def execute(params, store):
            _time.sleep(float(params.get("sleep_s", 0.0)))
            return (
                {"kind": "_staggered", "seed": int(params["seed"])},
                {"value": np.array([int(params["seed"])])},
            )

        register_task_kind(
            TaskKind(
                name="_staggered",
                axes=("seed",),
                defaults={"sleep_s": 0.0},
                execute=execute,
                key_extras=lambda params: {},
            )
        )

    def _staggered_task(self, task_id, seed, sleep_s):
        params = {"seed": seed, "sleep_s": sleep_s}
        return TaskSpec(
            kind="_staggered",
            params=params,
            task_id=task_id,
            key=resolve_task_key("_staggered", params),
        )

    def test_pooled_settling_is_completion_order(self, tmp_path, monkeypatch):
        # Regression for head-of-line blocking: a slow task submitted *first*
        # must not delay the progress line (or the journal status) of a fast
        # sibling submitted after it.  The real fork pool clamps to the CPU
        # count (serial on a 1-core box), so pin a genuinely-concurrent
        # 2-thread pool — the orchestrator's settle loop is what's under test.
        from concurrent.futures import ThreadPoolExecutor

        import repro.runtime.orchestrator as orchestrator

        monkeypatch.setattr(
            orchestrator,
            "create_worker_pool",
            lambda n: ThreadPoolExecutor(max_workers=n),
        )
        self._register_staggered()
        slow = self._staggered_task("slow", seed=1, sleep_s=1.0)
        fast = self._staggered_task("fast", seed=2, sleep_s=0.0)
        store = ExperimentStore(tmp_path / "store")
        lines = []
        report = SweepOrchestrator(
            store,
            n_workers=2,
            progress=lines.append,
            journal_min_interval_s=0.0,
        ).run([slow, fast], name="hol")
        assert len(report.executed) == 2
        settled = [line.split("] ")[1].split(" ")[0] for line in lines]
        assert settled == ["fast", "slow"]
        # The journal written between the two settles already shows the fast
        # task executed while the slow one is still pending.
        journal = json.loads(next(iter(store.sweeps_dir.glob("*.json"))).read_text())
        assert journal["tasks"]["fast"]["status"] == "executed"

    def test_journal_writes_are_throttled(self, tmp_path):
        self._register_staggered()
        tasks = [
            self._staggered_task(f"t{i}", seed=10 + i, sleep_s=0.0)
            for i in range(20)
        ]
        store = ExperimentStore(tmp_path / "store")
        report = SweepOrchestrator(store, journal_min_interval_s=3600.0).run(
            tasks, name="throttle"
        )
        assert len(report.executed) == 20
        # One initial forced write + one final forced write; the 20 settles
        # in between never rewrote the journal (previously O(n^2) bytes).
        assert report.journal_writes == 2
        journal = json.loads(next(iter(store.sweeps_dir.glob("*.json"))).read_text())
        assert all(
            entry["status"] == "executed" for entry in journal["tasks"].values()
        )

    def test_unthrottled_journal_tracks_every_settle(self, tmp_path):
        self._register_staggered()
        tasks = [
            self._staggered_task(f"u{i}", seed=50 + i, sleep_s=0.0)
            for i in range(5)
        ]
        store = ExperimentStore(tmp_path / "store")
        report = SweepOrchestrator(store, journal_min_interval_s=0.0).run(
            tasks, name="eager"
        )
        assert report.journal_writes >= 3  # initial + per-iteration + final

    def test_summary_line_separates_blocked_from_pending(self, tmp_path):
        register_task_kind(
            TaskKind(
                name="_always_fails",
                axes=("seed",),
                defaults={},
                execute=lambda params, store: (_ for _ in ()).throw(
                    RuntimeError("boom")
                ),
                key_extras=lambda p: {},
            )
        )
        bad = TaskSpec(
            kind="_always_fails",
            params={"seed": 9},
            task_id="bad",
            key=resolve_task_key("_always_fails", {"seed": 9}),
        )
        summary = summary_task([bad])
        store = ExperimentStore(tmp_path / "store")
        report = SweepOrchestrator(store).run([bad, summary], name="blocky")
        assert [t.task_id for t in report.blocked] == ["sweep_summary"]
        assert report.blocked[0].blocked_on == "bad"
        assert not report.pending  # blocked is its own bucket now
        line = report.summary_line()
        assert "1 blocked" in line and "0 pending" in line
        assert "(blocked on: bad)" in line

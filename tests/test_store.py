"""Tests for the content-addressed experiment store (repro.store)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.evaluation import BenchmarkEvaluation, PolicyOutcome
from repro.dd.insertion import DDAssignment
from repro.circuits import QuantumCircuit
from repro.hardware import Backend, calibration_seed, generate_calibration, get_device
from repro.store import (
    SCHEMA_VERSION,
    ExperimentStore,
    calibration_fingerprint,
    canonical_json,
    circuit_fingerprint,
    device_fingerprint,
    fingerprint,
    gst_fingerprint,
    task_key,
)
from repro.store.records import (
    decode_decoy_correlation,
    decode_evaluation,
    encode_decoy_correlation,
    encode_evaluation,
)


class TestKeys:
    def test_canonical_json_normalises_containers(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert canonical_json((1, 2)) == canonical_json([1, 2])
        assert canonical_json({3, 1, 2}) == canonical_json([1, 2, 3])

    def test_canonical_json_rejects_uncanonicalisable(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_circuit_fingerprint_ignores_name_tracks_structure(self):
        a = QuantumCircuit(2, name="a")
        a.h(0)
        a.cx(0, 1)
        b = QuantumCircuit(2, name="completely-different-name")
        b.h(0)
        b.cx(0, 1)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        b.x(1)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_gst_fingerprint_tracks_schedule(self, rome_backend):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        alap = rome_backend.schedule(circuit)
        asap = rome_backend.schedule(circuit, method="asap")
        assert gst_fingerprint(alap) == gst_fingerprint(rome_backend.schedule(circuit))
        assert gst_fingerprint(alap) != gst_fingerprint(asap)

    def test_calibration_fingerprint_separates_cycles_and_devices(self):
        rome = get_device("ibmq_rome")
        london = get_device("ibmq_london")
        fp = calibration_fingerprint(generate_calibration(rome, cycle=0))
        assert fp == calibration_fingerprint(generate_calibration(rome, cycle=0))
        assert fp != calibration_fingerprint(generate_calibration(rome, cycle=1))
        assert fp != calibration_fingerprint(generate_calibration(london, cycle=0))

    def test_device_fingerprint_covers_error_profile(self):
        rome = get_device("ibmq_rome")
        from dataclasses import replace

        assert device_fingerprint(rome) != device_fingerprint(
            replace(rome, cnot_error=rome.cnot_error * 1.01)
        )

    def test_task_key_embeds_schema_version(self):
        key = task_key("figure1", {"device": "ibmq_rome"})
        assert key != fingerprint(
            {"schema": SCHEMA_VERSION + 1, "kind": "figure1",
             "params": {"device": "ibmq_rome"}}
        )

    def test_defaults_normalised_into_keys(self):
        from repro.runtime.tasks import resolve_task_key

        implicit = resolve_task_key("figure1", {"device": "ibmq_london", "seed": 1})
        explicit = resolve_task_key(
            "figure1", {"device": "ibmq_london", "seed": 1, "shots": 4096}
        )
        assert implicit == explicit
        # The calibration cycle has an implicit default too: `repro run`
        # without --param cycle must share the sweep's cycle=0 records.
        assert implicit == resolve_task_key(
            "figure1", {"device": "ibmq_london", "seed": 1, "cycle": 0}
        )
        assert implicit != resolve_task_key(
            "figure1", {"device": "ibmq_london", "seed": 1, "cycle": 1}
        )
        assert implicit != resolve_task_key(
            "figure1", {"device": "ibmq_london", "seed": 1, "shots": 1024}
        )

    def test_run_invariant_knobs_stay_out_of_keys(self):
        from repro.runtime.tasks import resolve_task_key

        base = {"device": "ibmq_rome", "cycle": 0, "benchmark": "ADDER-4", "seed": 3}
        assert resolve_task_key("policy_comparison", base) == resolve_task_key(
            "policy_comparison", {**base, "n_workers": 8, "use_batch": False}
        )

    def test_ignored_use_batch_param_stores_the_same_record(self):
        from repro.runtime.tasks import run_task

        params = {
            "device": "ibmq_toronto",
            "benchmark": "BV:11",
            "seed": 3,
            "shots": 128,
            "decoy_shots": 64,
            "trajectories": 4,
            "runtime_best_max_evaluations": 4,
        }
        default_meta, _ = run_task("policy_comparison", params)
        legacy_meta, _ = run_task("policy_comparison", {**params, "use_batch": False})
        assert legacy_meta == default_meta


_CROSS_PROCESS_SNIPPET = """
import json, sys
from repro.hardware import generate_calibration, get_device
from repro.store import calibration_fingerprint
from repro.runtime.tasks import resolve_task_key
device = get_device("ibmq_rome")
print(json.dumps({
    "cal": calibration_fingerprint(generate_calibration(device, cycle=3)),
    "key": resolve_task_key("figure1", {"device": "ibmq_london", "cycle": 1, "seed": 9}),
}))
"""


def _run_with_hashseed(hashseed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _CROSS_PROCESS_SNIPPET],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


class TestCalibrationDeterminism:
    """Store keys depend on calibration content, so its derivation must be
    process-stable: pure hashlib streams, nothing touching ``hash()``."""

    def test_calibration_seed_is_hashlib_derived(self):
        import hashlib

        device = get_device("ibmq_rome")
        digest = hashlib.sha256(b"ibmq_rome:5").digest()
        assert calibration_seed(device, 5) == int.from_bytes(digest[:8], "little")

    def test_fingerprints_and_keys_stable_across_processes(self):
        # Different PYTHONHASHSEED randomises str.__hash__ (dict/set iteration
        # of interned strings); any hash()-dependent path in calibration
        # generation or key canonicalisation would diverge here.
        a = _run_with_hashseed("0")
        b = _run_with_hashseed("4242")
        assert a == b
        # ... and the parent process (whatever its seed) agrees too.
        device = get_device("ibmq_rome")
        assert a["cal"] == calibration_fingerprint(generate_calibration(device, cycle=3))


class TestExperimentStore:
    def test_roundtrip_meta_and_arrays(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        arrays = {"trend": np.linspace(0.0, 1.0, 7), "mask": np.array([1, 0, 1])}
        store.put("a" * 64, {"kind": "demo", "value": 1.5}, arrays)
        record = store.get("a" * 64)
        assert record is not None
        assert record.meta["value"] == 1.5
        np.testing.assert_array_equal(record.arrays["trend"], arrays["trend"])
        np.testing.assert_array_equal(record.arrays["mask"], arrays["mask"])

    def test_memory_then_disk_tier_counters(self, tmp_path):
        root = tmp_path / "store"
        store = ExperimentStore(root)
        store.put("b" * 64, {"kind": "demo"})
        assert store.get("b" * 64) is not None
        assert store.stats["memory_hits"] == 1
        fresh = ExperimentStore(root)  # cold memory tier, warm disk tier
        assert fresh.get("b" * 64) is not None
        assert fresh.stats["disk_hits"] == 1
        assert fresh.get("b" * 64) is not None  # now memoized
        assert fresh.stats["memory_hits"] == 1
        assert fresh.get("c" * 64) is None
        assert fresh.stats["misses"] == 1

    def test_memory_tier_is_lru_bounded(self, tmp_path):
        store = ExperimentStore(tmp_path / "store", max_memory_entries=2)
        for i in range(4):
            store.put(f"{i}" * 64, {"kind": "demo", "i": i})
        assert len(store._memory) == 2
        # Evicted entries still come back from disk.
        assert store.get("0" * 64).meta["i"] == 0

    def test_corrupt_manifest_recovers_as_miss(self, tmp_path):
        root = tmp_path / "store"
        store = ExperimentStore(root)
        key = "d" * 64
        store.put(key, {"kind": "demo"}, {"x": np.ones(3)})
        store._memory.clear()
        store._manifest_path(key).write_text("{ not json", encoding="utf-8")
        assert store.get(key) is None
        assert store.stats["corrupt_dropped"] == 1
        assert not store._manifest_path(key).exists()
        assert not store._arrays_path(key).exists()
        # A recompute-and-put heals the entry.
        store.put(key, {"kind": "demo"}, {"x": np.ones(3)})
        store._memory.clear()
        assert store.get(key) is not None

    def test_partial_artifact_missing_arrays_recovers_as_miss(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        key = "e" * 64
        store.put(key, {"kind": "demo"}, {"x": np.arange(4)})
        store._memory.clear()
        store._arrays_path(key).unlink()
        assert store.get(key) is None
        assert store.stats["corrupt_dropped"] == 1

    def test_truncated_npz_recovers_as_miss(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        key = "f" * 64
        store.put(key, {"kind": "demo"}, {"x": np.arange(64)})
        store._memory.clear()
        blob = store._arrays_path(key).read_bytes()
        store._arrays_path(key).write_bytes(blob[: len(blob) // 2])
        assert store.get(key) is None
        assert store.stats["corrupt_dropped"] == 1

    def test_other_schema_versions_are_misses_but_not_destroyed(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        key = "9" * 64
        store.put(key, {"kind": "demo"})
        store._memory.clear()
        manifest = json.loads(store._manifest_path(key).read_text())
        manifest["schema"] = SCHEMA_VERSION + 1
        store._manifest_path(key).write_text(json.dumps(manifest))
        assert store.get(key) is None
        assert store._manifest_path(key).exists()  # left for gc, not deleted

    def test_gc_reclaims_stale_orphan_tmp(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        stale = "1" * 64
        keep = "2" * 64
        store.put(stale, {"kind": "old"})
        store.put(keep, {"kind": "new"})
        manifest = json.loads(store._manifest_path(stale).read_text())
        manifest["schema"] = SCHEMA_VERSION - 1
        store._manifest_path(stale).write_text(json.dumps(manifest))
        orphan = store._bucket("3" * 64) / ("3" * 64 + ".npz")
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"orphaned")
        tmp = store._bucket(keep) / ".tmp-123-leftover"
        tmp.write_bytes(b"partial")

        dry = store.gc(dry_run=True)
        assert len(dry["stale_schema"]) == 1
        assert orphan.exists() and tmp.exists()  # dry run deletes nothing

        removed = store.gc()
        assert len(removed["stale_schema"]) == 1
        assert len(removed["orphan"]) == 1
        assert len(removed["tmp"]) == 1
        assert not orphan.exists() and not tmp.exists()
        assert store.keys() == [keep]

    def test_gc_expires_old_records(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        key = "4" * 64
        store.put(key, {"kind": "old"})
        manifest = json.loads(store._manifest_path(key).read_text())
        manifest["created_at"] = 1.0  # 1970
        store._manifest_path(key).write_text(json.dumps(manifest))
        removed = store.gc(older_than_s=3600.0)
        assert len(removed["expired"]) == 1
        assert store.keys() == []

    def test_concurrent_writers_same_and_distinct_keys(self, tmp_path):
        root = tmp_path / "store"
        shared_key = "5" * 64

        def write(i: int) -> None:
            # Each writer uses its own handle, like worker processes do.
            writer = ExperimentStore(root, max_memory_entries=0)
            writer.put(shared_key, {"kind": "demo", "payload": "same"},
                       {"x": np.full(16, 7.0)})
            writer.put(f"{i:064x}", {"kind": "demo", "i": i}, {"x": np.arange(i + 1)})

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(write, range(16)))

        reader = ExperimentStore(root, max_memory_entries=0)
        record = reader.get(shared_key)
        assert record is not None and record.meta["payload"] == "same"
        np.testing.assert_array_equal(record.arrays["x"], np.full(16, 7.0))
        for i in range(16):
            assert reader.get(f"{i:064x}").meta["i"] == i
        assert reader.stats["corrupt_dropped"] == 0
        # No temp litter left behind.
        assert reader.gc(dry_run=True)["tmp"] == []

    def test_flush_session_stats_accumulates(self, tmp_path):
        root = tmp_path / "store"
        store = ExperimentStore(root)
        store.put("6" * 64, {"kind": "demo"})
        store.get("6" * 64)
        store.flush_session_stats()
        again = ExperimentStore(root)
        again.get("6" * 64)
        cumulative = again.flush_session_stats()
        assert cumulative["writes"] == 1
        assert cumulative["memory_hits"] + cumulative["disk_hits"] == 2


class TestRecordRoundtrips:
    def test_benchmark_evaluation_roundtrip(self):
        evaluation = BenchmarkEvaluation(
            benchmark="QFT-5",
            backend="ibmq_rome",
            dd_sequence="xy4",
            baseline_fidelity=0.42,
        )
        evaluation.outcomes["adapt"] = PolicyOutcome(
            policy="adapt",
            assignment=DDAssignment.all([1, 3]),
            fidelity=0.9,
            relative_fidelity=2.142857,
            dd_pulse_count=12,
            num_evaluations=17,
            metadata={"bitstring": "0101", "decoy_kind": "sdc"},
        )
        meta, arrays = encode_evaluation(evaluation)
        decoded = decode_evaluation(meta)
        assert decoded.benchmark == "QFT-5"
        assert decoded.baseline_fidelity == pytest.approx(0.42)
        outcome = decoded.outcomes["adapt"]
        assert outcome.assignment == DDAssignment.all([1, 3])
        assert outcome.fidelity == pytest.approx(0.9)
        assert outcome.num_evaluations == 17
        assert outcome.metadata["bitstring"] == "0101"

    def test_decoy_correlation_roundtrip(self):
        from repro.analysis.decoy_quality import DecoyCorrelation

        result = DecoyCorrelation(
            benchmark="ADDER-4",
            backend="ibmq_rome",
            decoy_kind="cdc",
            correlation=0.87,
            decoy_sim_time_s=0.031,
            actual_trend=[0.1, 0.2, 0.3],
            decoy_trend=[0.15, 0.25, 0.29],
            bitstrings=["00", "01", "10"],
        )
        meta, arrays = encode_decoy_correlation(result)
        decoded = decode_decoy_correlation(meta, arrays)
        assert decoded == result


class TestDriverStoreIntegration:
    def test_figure1_warm_hit_skips_execution(self, tmp_path, london_backend):
        from repro.analysis.motivation import figure1_motivation_study

        store = ExperimentStore(tmp_path / "store")
        cold = figure1_motivation_study(london_backend, shots=256, seed=3, store=store)
        writes = store.stats["writes"]
        warm = figure1_motivation_study(london_backend, shots=256, seed=3, store=store)
        assert warm == cold
        assert store.stats["writes"] == writes  # nothing recomputed or rewritten
        # A different budget is a different experiment.
        other = figure1_motivation_study(london_backend, shots=128, seed=3, store=store)
        assert store.stats["writes"] == writes + 1
        assert set(other) == set(cold)

    def test_every_store_aware_driver_cold_then_warm(self, tmp_path, rome_backend):
        """Each read-through driver returns identical results on the warm path
        and performs zero additional writes."""
        from repro.analysis.characterization import (
            calibration_drift_study,
            full_device_characterization,
            pulse_type_study,
            single_qubit_idling_study,
        )
        from repro.analysis.decoy_quality import decoy_correlation_study
        from repro.analysis.motivation import figure3_swap_idle_study

        drivers = [
            lambda store: figure3_swap_idle_study(
                sizes=(4,), device_name="ibmq_rome", store=store
            ),
            lambda store: single_qubit_idling_study(
                rome_backend, idle_ns=600.0, thetas=(1.1,), shots=64, seed=1,
                store=store,
            ),
            lambda store: full_device_characterization(
                rome_backend, idle_ns=600.0, thetas=(1.1,), shots=64,
                max_combinations=2, seed=1, store=store,
            ),
            lambda store: calibration_drift_study(
                "ibmq_rome", 0, (1, 2), cycles=(0,), idle_ns=600.0, thetas=(1.1,),
                shots=64, seed=1, store=store,
            ),
            lambda store: pulse_type_study(
                rome_backend, idle_times_ns=(600.0,), shots=64, seed=1,
                max_probe_qubits=1, store=store,
            ),
            lambda store: decoy_correlation_study(
                "ADDER-4", rome_backend, shots=64, seed=1, store=store,
            ),
        ]
        store = ExperimentStore(tmp_path / "store")
        for driver in drivers:
            cold = driver(store)
            writes = store.stats["writes"]
            warm = driver(store)
            assert store.stats["writes"] == writes, "warm path must not rewrite"
            if hasattr(cold, "actual_trend"):  # DecoyCorrelation
                assert warm.actual_trend == cold.actual_trend
                assert warm.correlation == cold.correlation
            else:
                assert warm == cold

    def test_memory_tier_hits_are_isolated_from_caller_mutation(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        key = "8" * 64
        store.put(key, {"rows": [{"a": 1}]}, {"x": np.arange(3)})
        first = store.get(key)
        first.meta["rows"][0]["a"] = 999  # caller post-processes in place
        again = store.get(key)
        assert again.meta["rows"][0]["a"] == 1
        with pytest.raises(ValueError):
            first.arrays["x"][0] = 42  # arrays are frozen, not silently shared

    def test_evaluate_policies_reads_through_store(self, tmp_path, rome_backend):
        from repro.analysis.evaluation_runs import (
            EvaluationConfig,
            run_policy_comparison,
        )

        store = ExperimentStore(tmp_path / "store")
        config = EvaluationConfig(
            shots=256,
            decoy_shots=128,
            trajectories=20,
            runtime_best_max_evaluations=4,
            seed=11,
        )
        cold = run_policy_comparison("ADDER-4", rome_backend, config, store=store)
        warm = run_policy_comparison("ADDER-4", rome_backend, config, store=store)
        assert warm.outcomes.keys() == cold.outcomes.keys()
        for name in cold.outcomes:
            assert warm.outcomes[name].fidelity == cold.outcomes[name].fidelity
            assert warm.outcomes[name].assignment == cold.outcomes[name].assignment
        # Warm call decoded the stored record rather than re-running policies.
        assert store.stats["memory_hits"] + store.stats["disk_hits"] >= 1
        # The key schema is owned by evaluate_policies alone, so the two
        # calls share exactly one benchmark_evaluation record — a direct
        # evaluate_policies(store=...) call with the same configuration
        # would hit it too.
        evaluations = [r for r in store.ls() if r["kind"] == "benchmark_evaluation"]
        assert len(evaluations) == 1
        # The key folds in every policy's describe() dict and the executor
        # knobs; it is pinned so that a change to either fails here instead
        # of silently orphaning stored evaluations.
        assert evaluations[0]["key"] == (
            "5f86e8d51be7b562652e57ceb564d62fa09286ad7d42fbeb815173d3ab66b717"
        )


class TestAggregatedCacheStats:
    def test_executor_cache_stats_surface_process_caches(self, rome_backend):
        from repro.hardware import NoisyExecutor

        executor = NoisyExecutor(rome_backend, seed=1)
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        executor.run(circuit, shots=64)
        executor.run(circuit, shots=64)
        stats = executor.cache_stats()
        assert stats["program_compiles"] == 1
        assert stats["program_hits"] == 1
        assert stats["jobs_run"] == 2
        assert stats["cached_programs"] == 1
        assert stats["process_gate_matrices"] > 0

        batch = NoisyExecutor(rome_backend)
        batch_stats = batch.cache_stats()
        assert batch_stats["cached_programs"] == 0
        assert batch_stats["process_gate_matrices"] > 0


class TestFederation:
    """Ordered read-through roots: `--store write:read[:read...]`."""

    @staticmethod
    def _put(store, meta_tag):
        meta = {"kind": "figure1", "tag": meta_tag}
        arrays = {"values": np.arange(3, dtype=np.float64) + len(meta_tag)}
        key = fingerprint({"federation-test": meta_tag})
        store.put(key, meta, arrays)
        return key

    def test_read_through_hits_in_root_order(self, tmp_path):
        shared = ExperimentStore(tmp_path / "shared")
        key = self._put(shared, "shared-record")
        local = ExperimentStore(tmp_path / "local", read_roots=[tmp_path / "shared"])
        assert local.contains(key)
        record = local.get(key)
        assert record.meta["tag"] == "shared-record"
        assert local.stats["federated_hits"] == 1
        # Served into the local memory tier: the second read is a memory hit.
        local.get(key)
        assert local.stats["federated_hits"] == 1
        assert local.stats["memory_hits"] == 1

    def test_writes_go_to_first_root_only(self, tmp_path):
        local = ExperimentStore(tmp_path / "local", read_roots=[tmp_path / "shared"])
        key = self._put(local, "local-record")
        assert local._manifest_path(key).exists()
        shared = ExperimentStore(tmp_path / "shared")
        assert not shared.contains(key)

    def test_own_root_shadows_read_roots(self, tmp_path):
        # Same key in both roots (content-addressed, so payloads agree):
        # the write root must win without touching the fallbacks.
        shared = ExperimentStore(tmp_path / "shared")
        key = self._put(shared, "same")
        local = ExperimentStore(tmp_path / "local", read_roots=[tmp_path / "shared"])
        self._put(local, "same")
        local._memory.clear()
        assert local.get(key).meta["tag"] == "same"
        assert local.stats["federated_hits"] == 0

    def test_read_roots_are_never_mutated(self, tmp_path):
        shared = ExperimentStore(tmp_path / "shared")
        key = self._put(shared, "damaged")
        # Corrupt the shared copy: a plain store would quarantine it on read,
        # but a federated *read root* must never be written to.
        shared._manifest_path(key).write_text("{ damaged", encoding="utf-8")
        local = ExperimentStore(
            tmp_path / "local", read_roots=[tmp_path / "shared"]
        )
        assert local.get(key) is None  # corrupt fallback is a miss...
        assert shared._manifest_path(key).exists()  # ...not a quarantine
        with pytest.raises(PermissionError):
            local._read_stores[0].put(key, {"kind": "figure1"}, {})

    def test_from_spec_roundtrip(self, tmp_path):
        spec = os.pathsep.join(
            [str(tmp_path / "write"), str(tmp_path / "ro1"), str(tmp_path / "ro2")]
        )
        store = ExperimentStore.from_spec(spec)
        assert store.spec_string() == spec
        assert store.root == tmp_path / "write"
        assert store.read_roots == [tmp_path / "ro1", tmp_path / "ro2"]
        with pytest.raises(ValueError, match="no roots"):
            ExperimentStore.from_spec(os.pathsep)

    def test_gc_reclaims_stale_leases_only_past_ttl(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        sweep_dir = store.leases_dir / "deadbeef"
        sweep_dir.mkdir(parents=True)
        stale = sweep_dir / "old.lease"
        stale.write_text("{}", encoding="utf-8")
        old = time.time() - 7200.0
        os.utime(stale, (old, old))
        fresh = sweep_dir / "new.lease"
        fresh.write_text("{}", encoding="utf-8")

        removed = store.gc(dry_run=True, lease_older_than_s=3600.0)
        assert removed["stale_lease"] == [str(stale)]
        assert stale.exists()  # dry run

        removed = store.gc(lease_older_than_s=3600.0)
        assert removed["stale_lease"] == [str(stale)]
        assert not stale.exists() and fresh.exists()
        assert sweep_dir.exists()  # still holds the live lease

        os.utime(fresh, (old, old))
        store.gc(lease_older_than_s=3600.0)
        assert not sweep_dir.exists()  # emptied sweep dirs are pruned

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
from repro.hardware import (
    calibration_seed,
    generate_calibration,
    get_device,
    synthetic_device,
    topologies,
)
from repro.hardware.execution import NoisyExecutor
from repro.runtime import SweepOrchestrator, SweepSpec, available_task_kinds, resolve_task_key
from repro.store import (
    SCHEMA_VERSION,
    ExperimentStore,
    calibration_fingerprint,
    canonical_json,
    circuit_fingerprint,
    device_fingerprint,
    fingerprint,
    task_key,
)
from repro.store.records import encode_decoy_correlation, encode_evaluation


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


class TestRecordEncoders:
    def test_benchmark_evaluation_encoding(self):
        evaluation = BenchmarkEvaluation(
            benchmark="QFT-5",
            backend="ibmq_rome",
            dd_sequence="xy4",
            baseline_fidelity=0.42,
        )
        evaluation.outcomes["adapt"] = PolicyOutcome(
            policy="adapt",
            assignment=DDAssignment.all([3, 1]),
            fidelity=0.9,
            relative_fidelity=2.142857,
            dd_pulse_count=12,
            num_evaluations=17,
            metadata={"bitstring": "0101", "decoy_kind": "sdc", "best": np.float64(0.5)},
        )
        meta, arrays = encode_evaluation(evaluation)
        assert arrays == {}
        assert meta == {
            "kind": "benchmark_evaluation",
            "benchmark": "QFT-5",
            "backend": "ibmq_rome",
            "dd_sequence": "xy4",
            "baseline_fidelity": 0.42,
            "outcomes": {
                "adapt": {
                    "policy": "adapt",
                    "dd_qubits": [1, 3],
                    "fidelity": 0.9,
                    "relative_fidelity": 2.142857,
                    "dd_pulse_count": 12,
                    "num_evaluations": 17,
                    "metadata": {"bitstring": "0101", "decoy_kind": "sdc", "best": 0.5},
                }
            },
        }
        assert type(meta["outcomes"]["adapt"]["metadata"]["best"]) is float
        json.dumps(meta, allow_nan=False)  # a manifest payload as it stands

    def test_decoy_correlation_encoding(self):
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
        assert meta == {
            "kind": "decoy_correlation",
            "benchmark": "ADDER-4",
            "backend": "ibmq_rome",
            "decoy_kind": "cdc",
            "correlation": 0.87,
            "decoy_sim_time_s": 0.031,
            "bitstrings": ["00", "01", "10"],
        }
        assert sorted(arrays) == ["actual_trend", "decoy_trend"]
        assert arrays["actual_trend"].dtype == np.float64
        assert arrays["actual_trend"].tolist() == [0.1, 0.2, 0.3]
        assert arrays["decoy_trend"].tolist() == [0.15, 0.25, 0.29]


#: One parameter set per registered task kind and the key it resolves to.
#: Task keys are the only keys results are stored under, so a moved literal
#: orphans every stored record of that kind.
PINNED_TASK_KEYS = {
    "benchmark_run": (
        {"device": "ibmq_rome", "benchmark": "ADDER-4", "seed": 2},
        "b85be10c02a123ab88dcf8019eab69f7865ca8396809b1b533374e0257448976",
    ),
    "characterization": (
        {"device": "ibmq_rome", "seed": 1, "shots": 64, "max_combinations": 2},
        "feb4c40e3ee7a30383a47b8474c153f369678418f8de4acd087e7aae0a60f772",
    ),
    "decoy_correlation": (
        {"device": "ibmq_rome", "benchmark": "ADDER-4", "seed": 0},
        "245722003d76c04b210d7df737207fcb95b144ec6526600bf30af651aaf082d0",
    ),
    "drift": (
        {"device": "ibmq_rome", "seed": 1, "shots": 64},
        "181e74e093d51805f03ef29fd3ce184e818b76d0e712ca04cd1eacc5f48fa5a9",
    ),
    "figure1": (
        {"device": "ibmq_london", "seed": 3, "shots": 256},
        "8199d9dc9fb647dd08d67c7c7bfec3f101f8c2fe04b4d814f397f944a3b38333",
    ),
    "hardware_scaling": (
        {"device": "ibmq_rome", "benchmark": "GHZ:4", "seed": 0},
        "e0cf3e55d50d9c3ed30baeb47c65f69deaeecee0363a2a8650258ca03f8bf29d",
    ),
    "idling_study": (
        {"device": "ibmq_rome", "seed": 1, "shots": 64, "thetas": [0.0, 1.5707963267948966]},
        "e7887c31c4dba94fdb70885ff484d3c66d0193f9e8bb58c423fc6129140ba56d",
    ),
    "policy_comparison": (
        {"device": "ibmq_toronto", "benchmark": "QFT-6", "seed": 0},
        "cc74b86980f42845cacc693dd6419ca012b7c3c9e1741f5bd017a83bb799027e",
    ),
    "pulse_type": (
        {"device": "ibmq_rome", "seed": 1, "shots": 64, "max_probe_qubits": 1},
        "ec747f41ac7eed7c6f23f1f2ba08ff15c9ded2ae350ee732b3bd761dea0272ba",
    ),
    "swap_idle": (
        {"device": "ibmq_rome", "sizes": [4]},
        "733e0dfac77239a2364c8846f89b5370040e57053082eda89d56930adb3e7fc3",
    ),
    "sweep_summary": (
        {"tasks": {"a": "0" * 64}},
        "fe26b5c7019d8660743a1edbdb51d024cbb1283be8c0e93a559ea2328b1636bb",
    ),
    "table1": (
        {"device": "ibmq_toronto", "seed": 1, "benchmarks": ["QFT-5"], "shots": 512},
        "3ec62c9bbe724269cb871de1828fc635220707398798b7938e09e2daa6305dd7",
    ),
}

#: Calibration fingerprints of two device-scale snapshots at cycle 0: a
#: 255-qubit line (64,262 crosstalk pairs) and the 127-qubit heavy hex
#: (18,000).  Task keys embed these, so a moved literal moves every key of a
#: task on that device.
PINNED_CALIBRATIONS = {
    "line_255": "53f8344de12e93037e5f631161cd52475c4de0a916471c7ef1fab23bb3b44da2",
    "heavy_hex:4": "14197f848006d763bebb8d5f5bc29370802cba6a94c90918ae1a57c8e03b9ee1",
}


def _pinned_device(name: str):
    if name.startswith("line_"):
        width = int(name[len("line_"):])
        return synthetic_device(width, edges=topologies.line(width), name=name)
    return get_device(name)


class TestTaskKeyPins:
    def test_every_registered_kind_is_pinned(self):
        from repro.runtime.tasks import _get_kind

        # Test modules register kinds of their own; pin the package's.
        built_in = [
            kind
            for kind in available_task_kinds()
            if _get_kind(kind).execute.__module__ == "repro.runtime.tasks"
        ]
        assert sorted(PINNED_TASK_KEYS) == built_in

    @pytest.mark.parametrize("kind", sorted(PINNED_TASK_KEYS))
    def test_task_key_is_unchanged(self, kind):
        params, key = PINNED_TASK_KEYS[kind]
        assert resolve_task_key(kind, params) == key

    @pytest.mark.parametrize("name", sorted(PINNED_CALIBRATIONS))
    def test_device_scale_calibration_is_unchanged(self, name):
        calibration = generate_calibration(_pinned_device(name), cycle=0)
        assert calibration_fingerprint(calibration) == PINNED_CALIBRATIONS[name]


class TestCanonicalWorkloadSpelling:
    """A workload is keyed by the name its resolver gives it."""

    def test_case_variants_share_one_key(self):
        params, key = PINNED_TASK_KEYS["policy_comparison"]
        assert resolve_task_key("policy_comparison", {**params, "benchmark": "qft-6"}) == key
        point = {"device": "ibmq_toronto", "seed": 7}
        assert resolve_task_key(
            "hardware_scaling", {**point, "benchmark": "mirror:13@7"}
        ) == resolve_task_key("hardware_scaling", {**point, "benchmark": "MIRROR:13@7"})

    @pytest.mark.parametrize("name", ["MIRROR:half@7", "mirror:half@7", "NOPE-9"])
    def test_unresolved_names_stay_as_given(self, name):
        from repro.runtime.tasks import merged_params

        assert merged_params("hardware_scaling", {"benchmark": name})["benchmark"] == name

    def test_sweep_over_both_spellings_stores_one_record(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        spec = SweepSpec(
            name="t/spellings",
            kind="policy_comparison",
            devices=("ibmq_rome",),
            workloads=("adder-4", "ADDER-4"),
            seeds=(11,),
            params=_POLICY_BUDGET,
        )
        report = SweepOrchestrator(store).run(spec, name="t/spellings")
        assert not report.failed
        assert sorted(row["kind"] for row in store.ls()) == [
            "benchmark_evaluation",
            "sweep_summary",
        ]


def _count_run_batch(monkeypatch) -> dict:
    """Count ``NoisyExecutor.run_batch`` calls: every engine run passes it."""
    calls = {"n": 0}
    run_batch = NoisyExecutor.run_batch

    def counted(self, *args, **kwargs):
        calls["n"] += 1
        return run_batch(self, *args, **kwargs)

    monkeypatch.setattr(NoisyExecutor, "run_batch", counted)
    return calls


def _payloads(store: ExperimentStore, tasks) -> dict:
    """Record payloads by task id, minus the one wall-clock field."""
    payloads = {}
    for task in tasks:
        record = store.get(task.key)
        assert record is not None, task.task_id
        meta = dict(record.meta)
        meta.pop("decoy_sim_time_s", None)
        arrays = {name: value.tolist() for name, value in record.arrays.items()}
        payloads[task.task_id] = json.dumps([meta, arrays], sort_keys=True)
    return payloads


_POLICY_BUDGET = {
    "shots": 256,
    "decoy_shots": 128,
    "trajectories": 20,
    "runtime_best_max_evaluations": 4,
}
_PROBE = {"idle_ns": 600.0, "thetas": [1.1], "shots": 64}


def _engine_specs():
    """Figure 1, a Figure 13 policy comparison and a Figure 9 correlation."""
    return [
        SweepSpec(
            name="t/figure1",
            kind="figure1",
            devices=("ibmq_london",),
            seeds=(3,),
            params={"shots": 128},
        ),
        SweepSpec(
            name="t/policy",
            kind="policy_comparison",
            workloads=("ADDER-4",),
            seeds=(11,),
            params=_POLICY_BUDGET,
        ),
        SweepSpec(
            name="t/decoy",
            kind="decoy_correlation",
            workloads=("ADDER-4",),
            seeds=(1,),
            params={"shots": 64},
        ),
    ]


def _every_kind_specs():
    """One cheap task of every built-in leaf kind, on ibmq_rome by default."""
    return _engine_specs() + [
        SweepSpec(
            name="t/table1",
            kind="table1",
            seeds=(1,),
            params={"benchmarks": ["ADDER-4"], "shots": 64},
        ),
        SweepSpec(name="t/swap_idle", kind="swap_idle", params={"sizes": [4]}),
        SweepSpec(name="t/idling", kind="idling_study", seeds=(1,), params=_PROBE),
        SweepSpec(
            name="t/characterization",
            kind="characterization",
            seeds=(1,),
            params={**_PROBE, "max_combinations": 2},
        ),
        SweepSpec(name="t/drift", kind="drift", seeds=(1,), params={**_PROBE, "cycles": [0]}),
        SweepSpec(
            name="t/pulse_type",
            kind="pulse_type",
            seeds=(1,),
            params={"idle_times_ns": [600.0], "shots": 64, "max_probe_qubits": 1},
        ),
        SweepSpec(
            name="t/scaling",
            kind="hardware_scaling",
            workloads=("GHZ-5",),
            seeds=(5,),
            params={"shots": 128, "trajectories": 20},
        ),
        SweepSpec(
            name="t/run",
            kind="benchmark_run",
            workloads=("GHZ:3",),
            seeds=(2,),
            params={"shots": 128},
        ),
    ]


class TestTaskStoreIntegration:
    """Each result is one record under its task key, and nothing else."""

    def test_warm_run_of_every_kind_executes_nothing(self, tmp_path, monkeypatch):
        calls = _count_run_batch(monkeypatch)
        specs = _every_kind_specs()
        assert {spec.kind for spec in specs} | {"sweep_summary"} == set(PINNED_TASK_KEYS)
        store = ExperimentStore(tmp_path / "store")
        cold = SweepOrchestrator(store).run(specs, name="every-kind")
        assert not cold.failed
        assert len(cold.executed) == len(cold.tasks) == len(PINNED_TASK_KEYS)
        # One record per task: no driver writes a second copy of its result.
        assert sorted(r["key"] for r in store.ls()) == sorted(t.key for t in cold.tasks)
        cold_payloads = _payloads(store, cold.tasks)

        calls["n"] = 0
        writes = store.stats["writes"]
        warm = SweepOrchestrator(ExperimentStore(tmp_path / "store")).run(
            specs, name="every-kind"
        )
        assert len(warm.cached) == len(warm.tasks) and not warm.executed
        assert calls["n"] == 0
        assert store.stats["writes"] == writes
        assert _payloads(store, warm.tasks) == cold_payloads

    def test_recompute_and_healing_run_the_engine_again(self, tmp_path, monkeypatch):
        """``recompute=True`` and a corrupt task record execute for real and
        store the cold run's records again."""
        calls = _count_run_batch(monkeypatch)
        specs = _engine_specs()
        store = ExperimentStore(tmp_path / "store")
        cold = SweepOrchestrator(store).run(specs, name="engine")
        assert len(cold.executed) == len(cold.tasks) == 4
        assert calls["n"] > 0
        cold_payloads = _payloads(store, cold.tasks)

        calls["n"] = 0
        again = SweepOrchestrator(store).run(specs, name="engine", recompute=True)
        assert len(again.executed) == len(again.tasks)
        assert calls["n"] > 0
        assert _payloads(store, again.tasks) == cold_payloads

        policy = next(t for t in cold.tasks if t.kind == "policy_comparison")
        store._manifest_path(policy.key).write_text("{ damaged", encoding="utf-8")
        healer = ExperimentStore(tmp_path / "store")
        calls["n"] = 0
        healed = SweepOrchestrator(healer).run(specs, name="engine")
        assert [t.task_id for t in healed.executed] == [policy.task_id]
        assert calls["n"] > 0
        assert _payloads(healer, healed.tasks) == cold_payloads

    def test_memory_and_disk_hits_return_the_same_meta(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        key = "9" * 64
        meta = {"pair": (1, 2), "nested": {"b": {"c": [1, (2, 3)]}, "a": 0.1}}
        store.put(key, meta, {"x": np.arange(3)})
        from_memory = store.get(key)
        from_disk = ExperimentStore(tmp_path / "store").get(key)
        assert store.stats["memory_hits"] == 1
        expected = {"pair": [1, 2], "nested": {"b": {"c": [1, [2, 3]]}, "a": 0.1}}
        assert from_memory.meta == from_disk.meta == expected
        assert (from_memory.schema, from_memory.created_at) == (
            from_disk.schema,
            from_disk.created_at,
        )
        assert list(from_memory.arrays["x"]) == list(from_disk.arrays["x"]) == [0, 1, 2]
        # The manifest is one unindented line of JSON.
        assert b"\n" not in store._manifest_path(key).read_bytes()

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

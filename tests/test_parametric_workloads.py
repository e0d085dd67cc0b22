"""Parametric workload resolver, mirror circuits and the device-scale path.

Covers the resolver chain of :mod:`repro.workloads.suite` (fixed table ->
parametric families -> custom resolvers), the seeded mirror family and its
analytic target, the sparse ``stabilizer_frames`` execution path, and the
device-proportional hardware-scaling study the families feed into.
"""

import subprocess
import sys

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.hardware import Backend, NoisyExecutor
from repro.simulators import SimulationError, StabilizerSimulator
from repro.simulators.engines import select_engine
from repro.store.keys import circuit_fingerprint
from repro.transpiler import transpile
from repro.workloads import (
    BenchmarkSpec,
    benchmark_families,
    get_benchmark,
    mirror_circuit,
    mirror_target,
    register_resolver,
)
from repro.workloads.qaoa import heavy_hex_subgraph, path_graph
from repro.workloads.suite import _RESOLVERS


class TestResolverChain:
    def test_fixed_table_still_wins(self):
        assert get_benchmark("qft-6a").name == "QFT-6A"

    @pytest.mark.parametrize(
        "name,expected_qubits",
        [
            ("GHZ:12", 12),
            ("ghz:12", 12),
            ("QFT:9", 9),
            ("QFT:9B", 9),
            ("qft:9a", 9),
            ("BV:11", 11),
            ("QAOA:10@path", 10),
            ("QAOA:10@ring", 10),
            ("QAOA:10@heavy_hex", 10),
            ("MIRROR:16@3", 16),
        ],
    )
    def test_parametric_names_resolve_and_build(self, name, expected_qubits):
        spec = get_benchmark(name)
        assert spec.num_qubits == expected_qubits
        assert not spec.in_table4
        circuit = spec.build()
        assert circuit.num_qubits == expected_qubits
        assert circuit.num_measurements == expected_qubits

    def test_canonical_names_are_case_insensitive(self):
        assert get_benchmark("mirror:8@2").name == get_benchmark("MIRROR:8@2").name

    def test_unknown_fixed_name_lists_suite(self):
        with pytest.raises(KeyError, match="QFT-6A"):
            get_benchmark("QFT-99")

    def test_unknown_family_names_known_families(self):
        with pytest.raises(KeyError, match="MIRROR"):
            get_benchmark("FOO:5")

    @pytest.mark.parametrize(
        "name",
        ["MIRROR:5", "MIRROR:5@1@2", "QAOA:8", "GHZ:5@3"],
    )
    def test_bad_arity_reports_grammar(self, name):
        with pytest.raises(ValueError, match="expected"):
            get_benchmark(name)

    @pytest.mark.parametrize("name", ["GHZ:x", "MIRROR:big@1", "BV:3.5", "QFT:?A"])
    def test_non_integer_size_rejected(self, name):
        with pytest.raises(ValueError, match="integer"):
            get_benchmark(name)

    def test_too_small_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            get_benchmark("GHZ:1")

    def test_unknown_qaoa_graph_rejected(self):
        with pytest.raises(ValueError, match="known graphs"):
            get_benchmark("QAOA:8@torus")

    def test_mirror_seed_must_be_integer(self):
        with pytest.raises(ValueError, match="seed"):
            get_benchmark("MIRROR:8@abc")

    def test_families_listing_matches_resolvers(self):
        families = benchmark_families()
        assert set(families) == {"GHZ", "QFT", "BV", "QAOA", "MIRROR"}
        for grammar in families.values():
            assert ":" in grammar

    def test_custom_resolver_participates(self):
        def resolver(name):
            if name != "CUSTOM-PROBE":
                return None
            return BenchmarkSpec(
                name="CUSTOM-PROBE",
                description="one-qubit probe",
                num_qubits=1,
                builder=lambda: QuantumCircuit(1).x(0).measure(0),
                in_table4=False,
            )

        register_resolver(resolver)
        try:
            assert get_benchmark("CUSTOM-PROBE").num_qubits == 1
        finally:
            _RESOLVERS.remove(resolver)

    def test_appended_resolver_can_claim_new_colon_families(self):
        """An unknown family must fall through to later resolvers, not raise."""

        def resolver(name):
            if not name.upper().startswith("RB:"):
                return None
            size = int(name.partition(":")[2])
            return BenchmarkSpec(
                name=f"RB:{size}",
                description="randomized-benchmarking probe",
                num_qubits=size,
                builder=lambda: QuantumCircuit(size).x(0).measure_all(),
                in_table4=False,
            )

        register_resolver(resolver)  # default append, after the family parser
        try:
            assert get_benchmark("RB:3").num_qubits == 3
            # Families nobody claims still fail with the family message.
            with pytest.raises(KeyError, match="unknown workload family"):
                get_benchmark("NOPE:3")
        finally:
            _RESOLVERS.remove(resolver)


class TestDeterministicBuilds:
    """The store fingerprints circuit content: builds must be reproducible."""

    @pytest.mark.parametrize(
        "name", ["GHZ:10", "QFT:7B", "BV:9", "QAOA:9@heavy_hex", "MIRROR:14@5"]
    )
    def test_repeated_builds_are_bit_identical(self, name):
        first = get_benchmark(name).build()
        second = get_benchmark(name).build()
        assert first.gates == second.gates
        assert circuit_fingerprint(first) == circuit_fingerprint(second)

    def test_mirror_fingerprint_is_stable_across_processes(self):
        """Seeded builds must not depend on interpreter-level randomness."""
        code = (
            "from repro.workloads import get_benchmark\n"
            "from repro.store.keys import circuit_fingerprint\n"
            "print(circuit_fingerprint(get_benchmark('MIRROR:12@7').build()))\n"
        )
        digests = set()
        for hashseed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed},
                cwd=".",
                check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1
        assert circuit_fingerprint(get_benchmark("MIRROR:12@7").build()) in digests


class TestMirrorFamily:
    @pytest.mark.parametrize(
        "num_qubits,seed", [(4, 0), (8, 7), (13, 42), (64, 3), (65, 11), (129, 5)]
    )
    def test_analytic_target_matches_tableau_simulation(self, num_qubits, seed):
        circuit = mirror_circuit(num_qubits, seed, measure=False)
        outcome = StabilizerSimulator().probabilities(circuit)
        assert outcome == {mirror_target(num_qubits, seed): 1.0}

    def test_different_seeds_give_different_circuits(self):
        assert mirror_circuit(10, 1).gates != mirror_circuit(10, 2).gates

    def test_circuit_is_clifford_only(self):
        assert mirror_circuit(16, 3).is_clifford_only()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            mirror_circuit(1, 0)

    def test_transpiled_mirror_keeps_the_target(self, toronto_backend):
        """The compiled program's exact ideal output equals the analytic target."""
        from repro.core.evaluation import compiled_ideal_distribution

        compiled = transpile(mirror_circuit(13, 7), toronto_backend)
        ideal = compiled_ideal_distribution(compiled)
        assert ideal == {mirror_target(13, 7): pytest.approx(1.0)}


class TestLargeIdealDistribution:
    def test_large_clifford_program_uses_tableau_enumeration(self, toronto_backend):
        from repro.core.evaluation import compiled_ideal_distribution

        compiled = transpile(get_benchmark("GHZ:18").build(), toronto_backend)
        ideal = compiled_ideal_distribution(compiled)
        assert set(ideal) == {"0" * 18, "1" * 18}
        assert sum(ideal.values()) == pytest.approx(1.0)

    def test_mid_width_non_clifford_program_still_uses_the_statevector(
        self, toronto_backend
    ):
        """17–24 compacted qubits stay on the dense path for non-Clifford."""
        from repro.core.evaluation import compiled_ideal_distribution

        circuit = QuantumCircuit(18)
        circuit.ry(0.3, 0)  # one non-Clifford gate disqualifies the tableau
        for q in range(17):
            circuit.cx(q, q + 1)
        circuit.measure_all()
        compiled = transpile(circuit, toronto_backend)
        ideal = compiled_ideal_distribution(compiled)
        assert sum(ideal.values()) == pytest.approx(1.0)
        assert set(ideal) == {"0" * 18, "1" * 18}

    def test_large_non_clifford_program_fails_descriptively(self):
        from repro.core.evaluation import compiled_ideal_distribution

        backend = Backend.from_name("ibm_brooklyn")
        circuit = QuantumCircuit(26)
        for q in range(26):
            circuit.ry(0.3, q)
        circuit.measure_all()
        compiled = transpile(circuit, backend)
        with pytest.raises(ValueError, match="Clifford"):
            compiled_ideal_distribution(compiled)


class TestFrameEnginePath:
    def test_auto_budget_falls_back_to_frames_at_scale(self):
        name = select_engine(
            "auto", 60, clifford=True,
            memory_budget_bytes=256 * 1024 * 1024, trajectories=100,
        )
        assert name == "stabilizer_frames"
        # Non-Clifford programs never take the twirled path.
        dense = select_engine(
            "auto", 60, clifford=False,
            memory_budget_bytes=256 * 1024 * 1024, trajectories=100,
        )
        assert dense == "trajectories"

    def test_frames_reject_non_clifford_programs(self, rome_executor):
        circuit = QuantumCircuit(5).ry(0.3, 0).measure(0)
        with pytest.raises(SimulationError, match="Clifford"):
            rome_executor.run(circuit, engine="stabilizer_frames")

    def test_frames_agree_with_dense_stabilizer_at_small_width(self, london_backend):
        from repro.metrics import fidelity

        circuit = QuantumCircuit(5)
        circuit.h(0)
        for _ in range(12):
            circuit.cx(1, 3)
        circuit.h(0)
        circuit.measure(0)
        circuit.measure(1)
        executor = NoisyExecutor(london_backend, trajectories=3000)
        dense = executor.run(circuit, shots=512, seed=11, engine="stabilizer")
        frames = executor.run(circuit, shots=512, seed=11, engine="stabilizer_frames")
        assert fidelity(dense.probabilities, frames.probabilities) > 0.97
        # The exact flip-free probability is a floor of any single outcome's
        # error-free mass and must sit inside (0, 1].
        flip_free = frames.metadata["flip_free_probability"]
        assert 0.0 < flip_free <= 1.0

    def test_frames_handle_non_deterministic_ideal_outputs(self, toronto_backend):
        """GHZ support {00..0, 11..1} exercises the affine free-bit sampling."""
        from repro.metrics import fidelity

        compiled = transpile(get_benchmark("GHZ:12").build(), toronto_backend)
        executor = NoisyExecutor(toronto_backend, trajectories=3000)
        jobs = dict(
            shots=1024,
            output_qubits=compiled.output_qubits,
            gst=compiled.gst,
            seed=3,
        )
        frames = executor.run(
            compiled.physical_circuit, engine="stabilizer_frames", **jobs
        )
        dense = executor.run(compiled.physical_circuit, engine="stabilizer", **jobs)
        assert frames.engine == "stabilizer_frames"
        # TVD fidelity accumulates Monte-Carlo noise across the long tail of
        # single-flip outcomes; the headline outcomes must agree tightly.
        assert fidelity(dense.probabilities, frames.probabilities) > 0.8
        for bits in ("0" * 12, "1" * 12):
            assert frames.probability_of(bits) == pytest.approx(
                dense.probability_of(bits), abs=0.03
            )
        # Roughly balanced between the two GHZ branches (the free bit is fair).
        zeros = frames.probability_of("0" * 12)
        ones = frames.probability_of("1" * 12)
        assert zeros > 0.0 and ones > 0.0
        assert 0.5 < zeros / ones < 2.0
        # The flip-free metadata averages readout survival over BOTH ideal
        # outcomes (exact mixture, not the base point alone).
        assert 0.0 < frames.metadata["flip_free_probability"] < 1.0

    def test_frames_are_deterministic_and_batch_invariant(self, london_backend):
        from repro.dd import DDAssignment

        circuit = QuantumCircuit(5)
        circuit.h(0)
        for _ in range(8):
            circuit.cx(1, 3)
        circuit.h(0)
        circuit.measure(0)
        circuit.measure(1)
        assignments = [DDAssignment.none(), DDAssignment.all([0])]
        seeds = [21, 22]
        sequential = NoisyExecutor(london_backend, trajectories=50)
        batch = NoisyExecutor(london_backend, trajectories=50)
        batched = batch.run_assignments(
            circuit, assignments, shots=400, seeds=seeds, engine="stabilizer_frames"
        )
        for assignment, seed, from_batch in zip(assignments, seeds, batched):
            reference = sequential.run(
                circuit,
                dd_assignment=assignment,
                shots=400,
                seed=seed,
                engine="stabilizer_frames",
            )
            assert from_batch.counts == reference.counts
            assert from_batch.probabilities == reference.probabilities
            assert from_batch.metadata["flip_free_probability"] == (
                reference.metadata["flip_free_probability"]
            )

    def test_pipeline_rejects_sparse_results_without_readout(self, london_backend):
        """The readout_applied contract is enforced, not a dead switch."""
        from repro.simulators.engines import (
            StabilizerFrameEngine,
            _ENGINES,
            register_engine,
        )

        class ForgetfulFrames(StabilizerFrameEngine):
            name = "frames_forgot_readout"

            def run(self, program, jobs, trajectories):
                results = super().run(program, jobs, trajectories)
                for result in results:
                    result.readout_applied = False
                return results

        register_engine(ForgetfulFrames())
        try:
            circuit = QuantumCircuit(5).h(0).cx(0, 1).measure(0).measure(1)
            executor = NoisyExecutor(london_backend, trajectories=10)
            with pytest.raises(SimulationError, match="readout"):
                executor.run(circuit, shots=16, seed=1, engine="frames_forgot_readout")
        finally:
            _ENGINES.pop("frames_forgot_readout", None)

    def test_pipeline_rejects_wrong_width_sparse_results(self, london_backend):
        """A sparse engine ignoring EngineJob.outputs must fail loudly."""
        from repro.simulators.engines import (
            StabilizerFrameEngine,
            _ENGINES,
            register_engine,
        )

        class FullWidthFrames(StabilizerFrameEngine):
            name = "frames_full_width"

            def run(self, program, jobs, trajectories):
                for job in jobs:
                    job.outputs = None  # simulate an engine that ignores outputs
                return super().run(program, jobs, trajectories)

        register_engine(FullWidthFrames())
        try:
            # 3 active qubits but only 2 measured: widths must mismatch.
            circuit = QuantumCircuit(5).h(0).cx(0, 1).cx(1, 2).measure(0).measure(1)
            executor = NoisyExecutor(london_backend, trajectories=10)
            with pytest.raises(SimulationError, match="output register"):
                executor.run(circuit, shots=16, seed=1, engine="frames_full_width")
        finally:
            _ENGINES.pop("frames_full_width", None)

    def test_dd_protection_changes_flip_free_probability(self, london_backend):
        from repro.dd import DDAssignment

        circuit = QuantumCircuit(5)
        circuit.h(0)
        circuit.barrier(0, 1, 3)  # the barrier is what opens the idle window
        for _ in range(18):
            circuit.cx(1, 3)
        circuit.barrier(0, 1, 3)
        circuit.h(0)
        circuit.measure(0)
        circuit.measure(1)
        executor = NoisyExecutor(london_backend, trajectories=50)
        free = executor.run(circuit, shots=200, seed=4, engine="stabilizer_frames")
        protected = executor.run(
            circuit,
            dd_assignment=DDAssignment.all([0]),
            shots=200,
            seed=4,
            engine="stabilizer_frames",
        )
        assert (
            protected.metadata["flip_free_probability"]
            != free.metadata["flip_free_probability"]
        )


class TestDeviceNativeGraphs:
    def test_path_graph_is_a_chain(self):
        assert path_graph(5) == [(0, 1), (1, 2), (2, 3), (3, 4)]

    def test_heavy_hex_subgraph_edges_live_on_the_lattice(self):
        from repro.hardware import topologies

        edges = heavy_hex_subgraph(20)
        lattice = {frozenset(e) for e in topologies.heavy_hex(2)}
        assert edges
        assert all(frozenset(e) in lattice for e in edges)
        assert all(a < 20 and b < 20 for a, b in edges)

    def test_heavy_hex_subgraph_grows_the_lattice_when_needed(self):
        edges = heavy_hex_subgraph(40)  # > 27 qubits: needs distance 3
        assert max(max(e) for e in edges) < 40


class TestHardwareScalingWithMirrors:
    def test_half_token_resolves_per_device(self):
        from repro.analysis.scaling import device_proportional_benchmark

        toronto = Backend.from_name("ibmq_toronto")
        assert device_proportional_benchmark("MIRROR:half@7", toronto) == "MIRROR:13@7"
        assert device_proportional_benchmark("MIRROR:8@7", toronto) == "MIRROR:8@7"
        assert device_proportional_benchmark("QFT-6A", toronto) == "QFT-6A"

    def test_point_runs_device_proportional_mirror(self, toronto_backend):
        from repro.analysis.scaling import hardware_scaling_point

        record = hardware_scaling_point(
            toronto_backend, benchmark="MIRROR:half@7", trajectories=40, seed=7
        )
        assert record.benchmark == "MIRROR:13@7"
        assert record.program_qubits == 13
        assert record.engine == "stabilizer_frames"
        assert record.mirror_verified
        assert record.mirror_target == mirror_target(13, 7)
        assert record.flip_free_probability is not None
        assert 0.0 < record.flip_free_probability < 1.0
        assert 0.0 <= record.success_probability <= 1.0

    def test_non_mirror_point_keeps_measurement_context(self, toronto_backend):
        from repro.analysis.scaling import hardware_scaling_point

        record = hardware_scaling_point(
            toronto_backend, benchmark="QFT-6A", trajectories=40, seed=7
        )
        assert record.mirror_target == ""
        assert not record.mirror_verified
        assert record.flip_free_probability is None
        assert record.engine in ("density_matrix", "trajectories")

    def test_default_study_pairs_qft_with_device_mirror(self, tmp_path):
        from repro.analysis.scaling import hardware_scaling_study
        from repro.store.store import ExperimentStore

        store = ExperimentStore(tmp_path / "store")
        cold = hardware_scaling_study(
            device_names=("ibmq_toronto",),
            shots=256,
            trajectories=30,
            seed=7,
            store=store,
        )
        assert [r.benchmark for r in cold] == ["MIRROR:13@7", "QFT-6A"]
        warm = hardware_scaling_study(
            device_names=("ibmq_toronto",),
            shots=256,
            trajectories=30,
            seed=7,
            store=store,
        )
        for first, second in zip(cold, warm):
            assert first == second  # cached payloads are bit-identical
        # Case-variant spellings share the canonical key: everything cached.
        misses_before = store.stats.get("misses", 0)
        lower = hardware_scaling_study(
            device_names=("ibmq_toronto",),
            benchmark=("qft-6a", "mirror:half@7"),
            shots=256,
            trajectories=30,
            seed=7,
            store=store,
        )
        assert [r.benchmark for r in lower] == ["MIRROR:13@7", "QFT-6A"]
        assert store.stats.get("misses", 0) == misses_before

    def test_task_kind_accepts_parametric_workloads(self, tmp_path):
        from repro.runtime.tasks import resolve_task_key, run_task
        from repro.store.store import ExperimentStore

        params = {
            "device": "ibmq_toronto",
            "benchmark": "MIRROR:half@7",
            "seed": 7,
            "shots": 256,
            "trajectories": 30,
        }
        key = resolve_task_key("hardware_scaling", params)
        assert key == resolve_task_key("hardware_scaling", {**params, "engine": None})
        store = ExperimentStore(tmp_path / "store")
        meta, arrays = run_task("hardware_scaling", params, store)
        (row,) = meta["rows"]
        assert row["benchmark"] == "MIRROR:13@7"
        assert row["mirror_verified"] is True
        assert row["engine"] == "stabilizer_frames"

    def test_smoke_spec_grows_the_active_space(self):
        from repro.runtime.spec import expand_sweep, smoke_spec

        tasks = expand_sweep(smoke_spec())
        scaling = [t for t in tasks if t.kind == "hardware_scaling"]
        assert {t.params["benchmark"] for t in scaling} == {"QFT-6A", "MIRROR:48@7"}

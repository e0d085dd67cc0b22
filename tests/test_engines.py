"""Engine-registry tests: selection policy, equivalence matrix, compile cache.

The matrix test enforces the contract of ``docs/architecture.md``: every
registered engine must agree with the dense density-matrix reference on small
seeded programs, and the sequential facade, the batched path and any
``memory_budget_bytes`` sub-batch split must be bit-identical.
"""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.dd import DDAssignment
from repro.hardware import BatchJob, NoisyExecutor
from repro.metrics import fidelity
from repro.simulators import SimulationError, available_engines, get_engine, select_engine
from repro.simulators import channels
from repro.simulators.engines import pauli_twirl_probabilities

TRAJECTORIES = 200

#: Per-engine fidelity floor against the dense density-matrix reference.
#: The DM engine is the reference itself; trajectories are Monte-Carlo
#: (finite-sample error); the stabilizer fast path Pauli-twirls coherent
#: rotations (model error bounded and small on these programs); the frame
#: engine samples the same twirled model with TRAJECTORIES frames
#: (Monte-Carlo error on top of the twirl).
ENGINE_TOLERANCE = {
    "density_matrix": 1.0 - 1e-12,
    "trajectories": 0.94,
    "stabilizer": 0.995,
    "stabilizer_frames": 0.93,
}


def clifford_probe(num_qubits=5, idle_qubit=0, cnot_link=(1, 3), repetitions=10):
    """An idle-qubit probe built only from stabilizer-supported gates."""
    circuit = QuantumCircuit(num_qubits)
    circuit.h(idle_qubit)
    circuit.barrier(idle_qubit, *cnot_link)
    for _ in range(repetitions):
        circuit.cx(*cnot_link)
    circuit.barrier(idle_qubit, *cnot_link)
    circuit.h(idle_qubit)
    circuit.measure(idle_qubit)
    circuit.measure(cnot_link[0])
    return circuit


ASSIGNMENTS = [DDAssignment.none(), DDAssignment.all([0]), DDAssignment.all([0, 1, 3])]
SEEDS = [11, 22, 33]


class TestRegistry:
    def test_default_engines_registered(self):
        names = available_engines()
        assert {
            "density_matrix",
            "trajectories",
            "stabilizer",
            "stabilizer_frames",
        } <= set(names)

    def test_unknown_engine_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_engine("magic")
        message = str(excinfo.value)
        for name in available_engines():
            assert name in message

    def test_select_engine_validates_explicit_names(self):
        with pytest.raises(ValueError, match="registered engines"):
            select_engine("magic", 4)

    def test_auto_policy(self):
        assert select_engine("auto", 4, dm_qubit_limit=10) == "density_matrix"
        assert select_engine("auto", 11, dm_qubit_limit=10) == "trajectories"
        assert select_engine("auto", 4, clifford=True) == "stabilizer"
        # The Clifford fast path yields beyond its convolution limit.
        assert (
            select_engine("auto", 13, dm_qubit_limit=10, clifford=True, stabilizer_qubit_limit=12)
            == "trajectories"
        )
        assert select_engine("density_matrix", 99) == "density_matrix"

    def test_executor_rejects_unknown_engine_with_names(self, london_executor):
        circuit = QuantumCircuit(5).x(0).measure(0)
        with pytest.raises(ValueError, match="registered engines"):
            london_executor.run(circuit, engine="magic")


class TestEngineMatrix:
    """Every registered engine against the dense density-matrix reference."""

    @pytest.fixture(scope="class")
    def reference(self, london_backend):
        executor = NoisyExecutor(london_backend, trajectories=TRAJECTORIES)
        circuit = clifford_probe()
        return {
            seed: executor.run(
                circuit,
                dd_assignment=assignment,
                shots=600,
                seed=seed,
                engine="density_matrix",
            )
            for assignment, seed in zip(ASSIGNMENTS, SEEDS)
        }

    @pytest.mark.parametrize("engine", sorted(ENGINE_TOLERANCE))
    def test_engine_matches_dense_reference(self, london_backend, reference, engine):
        executor = NoisyExecutor(london_backend, trajectories=TRAJECTORIES)
        circuit = clifford_probe()
        for assignment, seed in zip(ASSIGNMENTS, SEEDS):
            result = executor.run(
                circuit, dd_assignment=assignment, shots=600, seed=seed, engine=engine
            )
            assert result.engine == engine
            assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)
            score = fidelity(reference[seed].probabilities, result.probabilities)
            assert score >= ENGINE_TOLERANCE[engine], (
                f"engine '{engine}' diverges from the DM reference: fidelity {score}"
            )

    @pytest.mark.parametrize("engine", sorted(ENGINE_TOLERANCE))
    def test_sequential_batch_and_split_are_bit_identical(self, london_backend, engine):
        """NoisyExecutor.run == one batch == any memory-budget sub-batching."""
        circuit = clifford_probe()
        sequential = NoisyExecutor(london_backend, trajectories=40)
        batch = NoisyExecutor(london_backend, trajectories=40)
        # A budget of one byte forces a sub-batch split into batches of one.
        split = NoisyExecutor(london_backend, trajectories=40, memory_budget_bytes=1)
        batched = batch.run_assignments(
            circuit, ASSIGNMENTS, shots=500, seeds=SEEDS, engine=engine
        )
        splitted = split.run_assignments(
            circuit, ASSIGNMENTS, shots=500, seeds=SEEDS, engine=engine
        )
        for assignment, seed, from_batch, from_split in zip(
            ASSIGNMENTS, SEEDS, batched, splitted
        ):
            reference = sequential.run(
                circuit, dd_assignment=assignment, shots=500, seed=seed, engine=engine
            )
            for result in (from_batch, from_split):
                assert result.counts == reference.counts
                assert result.dd_pulse_count == reference.dd_pulse_count
                keys = set(reference.probabilities) | set(result.probabilities)
                for key in keys:
                    assert result.probabilities.get(key, 0.0) == pytest.approx(
                        reference.probabilities.get(key, 0.0), abs=1e-9
                    )


class TestStabilizerEngine:
    def test_explicit_stabilizer_rejects_non_clifford(self, london_executor):
        circuit = QuantumCircuit(5).ry(0.3, 0).measure(0)
        with pytest.raises(SimulationError, match="Clifford"):
            london_executor.run(circuit, engine="stabilizer")

    def test_auto_picks_stabilizer_for_transpiled_clifford(self, rome_backend):
        from repro.transpiler import transpile
        from repro.workloads import bernstein_vazirani

        compiled = transpile(bernstein_vazirani(4), rome_backend)
        executor = NoisyExecutor(rome_backend, trajectories=30)
        result = executor.run(
            compiled.physical_circuit,
            shots=400,
            output_qubits=compiled.output_qubits,
            gst=compiled.gst,
            seed=1,
        )
        assert result.engine == "stabilizer"

    def test_stabilizer_is_deterministic_given_seed(self, london_backend):
        circuit = clifford_probe()
        executor = NoisyExecutor(london_backend)
        first = executor.run(circuit, shots=300, seed=9, engine="stabilizer")
        second = executor.run(circuit, shots=300, seed=9, engine="stabilizer")
        assert first.counts == second.counts
        assert first.probabilities == second.probabilities

    def test_dd_improves_crosstalk_limited_clifford_probe(self, london_backend):
        circuit = clifford_probe(repetitions=18)
        executor = NoisyExecutor(london_backend)
        free = executor.run(circuit, shots=4000, seed=4, engine="stabilizer")
        protected = executor.run(
            circuit,
            dd_assignment=DDAssignment.all([0]),
            shots=4000,
            seed=4,
            engine="stabilizer",
        )
        assert protected.probability_of("00") > free.probability_of("00")

    def test_pauli_twirl_is_exact_for_pauli_channels(self):
        probs, xbits, zbits = pauli_twirl_probabilities(channels.depolarizing(0.3))
        assert probs.sum() == pytest.approx(1.0)
        assert probs[0] == pytest.approx(0.7)
        assert np.allclose(probs[1:], 0.1)
        # Phase damping is a Z-diagonal channel: its twirl is a phase flip.
        lam = 0.4
        probs, xbits, zbits = pauli_twirl_probabilities(channels.phase_damping(lam))
        flip = (1.0 - math.sqrt(1.0 - lam)) / 2.0
        assert len(probs) == 2
        assert probs[1] == pytest.approx(flip)
        assert not xbits.any()  # no X component: diagonal channels never flip bits

    def test_twirl_probabilities_are_valid_for_amplitude_damping(self):
        probs, _, _ = pauli_twirl_probabilities(channels.amplitude_damping(0.25))
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()


class TestCompileCache:
    def test_repeated_runs_hit_the_cache(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=0)
        circuit = clifford_probe()
        executor.run(circuit, shots=64)
        assert executor.stats["program_compiles"] == 1
        assert executor.stats["program_hits"] == 0
        executor.run(circuit, dd_assignment=DDAssignment.all([0]), shots=64)
        executor.run(circuit, shots=64, engine="density_matrix")
        assert executor.stats["program_compiles"] == 1
        assert executor.stats["program_hits"] == 2

    def test_cache_keyed_by_gst_variant(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=0)
        circuit = clifford_probe()
        gst = london_backend.schedule(circuit)
        executor.run(circuit, shots=64)
        executor.run(circuit, shots=64, gst=gst)
        # Different (circuit, gst) key -> separate compile, then a hit.
        assert executor.stats["program_compiles"] == 2
        executor.run(circuit, shots=64, gst=gst)
        assert executor.stats["program_hits"] == 1

    def test_cache_detects_circuit_mutation(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=0)
        circuit = QuantumCircuit(5).h(0).measure(0)
        executor.run(circuit, shots=64)
        circuit.x(1)
        circuit.measure(1)
        result = executor.run(circuit, shots=64)
        assert executor.stats["program_compiles"] == 2
        assert result.most_probable() == "01"

    def test_cache_eviction_respects_capacity(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=0, max_cached_programs=2)
        circuits = [QuantumCircuit(5).x(q).measure(q) for q in range(3)]
        for circuit in circuits:
            executor.run(circuit, shots=32)
        assert len(executor._program_cache.entries) == 2

    def test_batch_executor_shares_the_same_cache_machinery(self, london_backend):
        batch = NoisyExecutor(london_backend)
        circuit = clifford_probe()
        batch.run_batch(circuit, [BatchJob(shots=32, seed=1)])
        batch.run_batch(circuit, [BatchJob(shots=32, seed=2)])
        assert batch.stats["program_compiles"] == 1
        assert batch.stats["program_hits"] == 1


class TestMemoryBudgetSelection:
    """Active-space memory budgeting threaded through select_engine."""

    def test_no_budget_preserves_nominal_policy(self):
        assert select_engine("auto", 9) == "density_matrix"
        assert select_engine("auto", 20) == "trajectories"
        assert select_engine("auto", 20, clifford=True) == "trajectories"
        assert select_engine("auto", 8, clifford=True) == "stabilizer"

    def test_dense_state_over_budget_degrades_to_trajectories(self):
        # 10 active qubits: the dm state is 16 * 4^10 = 16 MiB.
        name = select_engine(
            "auto", 10, dm_qubit_limit=10,
            memory_budget_bytes=1024 * 1024, trajectories=4,
        )
        assert name == "trajectories"

    def test_large_clifford_program_rides_stabilizer_beyond_auto_limit(self):
        # 20 active qubits: one trajectory stack is 16 * 100 * 2^20 = 1.6 GiB,
        # but the stabilizer spectrum is only 8 * 2^20 = 8 MiB.
        name = select_engine(
            "auto", 20, clifford=True,
            memory_budget_bytes=256 * 1024 * 1024, trajectories=100,
        )
        assert name == "stabilizer"
        # A measurement context never takes the twirled path.
        dense = select_engine(
            "auto_dense", 20, clifford=True,
            memory_budget_bytes=256 * 1024 * 1024, trajectories=100,
        )
        assert dense == "trajectories"

    def test_nothing_fits_keeps_preferred_engine(self):
        name = select_engine("auto", 30, memory_budget_bytes=1024, trajectories=100)
        assert name == "trajectories"

    def test_executors_share_the_budget_default(self):
        from repro.hardware import DEFAULT_MEMORY_BUDGET_BYTES, Backend

        executor = NoisyExecutor(Backend.from_name("ibmq_rome"))
        assert executor.memory_budget_bytes == DEFAULT_MEMORY_BUDGET_BYTES

"""Tests for batched execution: equivalence, caching, search batching."""

import math

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.core import Adapt, AdaptConfig, LocalizedSearch
from repro.core.adapt import evaluation_seed
from repro.core.evaluation import evaluate_policies
from repro.core.policies import AllDDPolicy, NoDDPolicy
from repro.dd import DDAssignment
from repro.hardware import (
    Backend,
    BatchJob,
    NoisyExecutor,
    job_sample_rng,
    job_streams,
    process_cache_stats,
)
from repro.metrics import fidelity
from repro.transpiler import transpile
from repro.workloads import qft_benchmark


def probe_circuit(num_qubits, idle_qubit, theta, cnot_link, repetitions):
    circuit = QuantumCircuit(num_qubits)
    circuit.ry(theta, idle_qubit)
    circuit.barrier(idle_qubit, *cnot_link)
    for _ in range(repetitions):
        circuit.cx(*cnot_link)
    circuit.barrier(idle_qubit, *cnot_link)
    circuit.ry(-theta, idle_qubit)
    circuit.measure(idle_qubit)
    return circuit


ASSIGNMENTS = [
    DDAssignment.none(),
    DDAssignment.all([0]),
    DDAssignment.all([0, 1, 3]),
]
SEEDS = [101, 202, 303]


def assert_distributions_close(sequential, batched, atol=1e-9):
    keys = set(sequential.probabilities) | set(batched.probabilities)
    for key in keys:
        a = sequential.probabilities.get(key, 0.0)
        b = batched.probabilities.get(key, 0.0)
        assert a == pytest.approx(b, abs=atol)


class TestSeededEquivalence:
    """The ``run`` vs ``run_batch`` contract of docs/architecture.md."""

    @pytest.mark.parametrize("engine", ["density_matrix", "trajectories"])
    def test_batch_matches_sequential_seeded_run(self, london_backend, engine):
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 12)
        batch = NoisyExecutor(london_backend, trajectories=40)
        batched = batch.run_assignments(
            circuit, ASSIGNMENTS, shots=500, seeds=SEEDS, engine=engine
        )
        for assignment, seed, result in zip(ASSIGNMENTS, SEEDS, batched):
            # One executor per single run: on a shared one, a run whose variants
            # repeat an earlier run's would read that run's memoized vector.
            reference = NoisyExecutor(london_backend, trajectories=40).run(
                circuit,
                dd_assignment=assignment,
                shots=500,
                seed=seed,
                engine=engine,
            )
            assert_distributions_close(reference, result)
            assert reference.counts == result.counts
            assert reference.dd_pulse_count == result.dd_pulse_count
            assert reference.output_qubits == result.output_qubits
            assert reference.engine == result.engine == engine

    def test_seeded_sequential_run_is_self_contained(self, london_backend):
        """run(seed=...) does not depend on (or disturb) the executor stream."""
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 6)
        executor = NoisyExecutor(london_backend, seed=99, trajectories=30)
        executor.run(circuit, shots=200)  # advance the legacy stream
        first = executor.run(circuit, shots=200, seed=42, engine="trajectories")
        second = executor.run(circuit, shots=200, seed=42, engine="trajectories")
        assert first.counts == second.counts
        assert first.probabilities == second.probabilities

    def test_job_streams_are_stable(self):
        streams_a, sample_a = job_streams(13, 3)
        streams_b, sample_b = job_streams(13, 3)
        for a, b in zip(streams_a, streams_b):
            assert a.random() == b.random()
        assert sample_a.integers(1 << 30) == sample_b.integers(1 << 30)

    @pytest.mark.parametrize("seed", [0, 13, 2**63 - 1])
    @pytest.mark.parametrize("trajectories", [1, 60, 200])
    def test_job_sample_rng_is_the_sampling_stream(self, seed, trajectories):
        _, expected = job_streams(seed, trajectories)
        sample = job_sample_rng(seed, trajectories)
        assert np.array_equal(sample.random(16), expected.random(16))
        assert np.array_equal(
            sample.multinomial(4096, [0.5, 0.25, 0.25]),
            expected.multinomial(4096, [0.5, 0.25, 0.25]),
        )

    def test_batch_respects_output_qubit_order(self, london_backend):
        circuit = QuantumCircuit(5).x(1).measure(1).measure(2)
        batch = NoisyExecutor(london_backend)
        forward, reverse = batch.run_batch(
            circuit,
            [
                BatchJob(shots=128, seed=5, output_qubits=(1, 2)),
                BatchJob(shots=128, seed=5, output_qubits=(2, 1)),
            ],
        )
        assert forward.most_probable() == "10"
        assert reverse.most_probable() == "01"


class TestCaching:
    def test_shared_program_cache_hits(self, london_backend):
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 6)
        batch = NoisyExecutor(london_backend)
        gst = london_backend.schedule(circuit)
        batch.run_assignments(circuit, ASSIGNMENTS, shots=64, seeds=SEEDS, gst=gst)
        assert batch.stats["program_compiles"] == 1
        assert batch.stats["program_hits"] == 0
        batch.run_assignments(circuit, ASSIGNMENTS, shots=64, seeds=SEEDS, gst=gst)
        assert batch.stats["program_compiles"] == 1
        assert batch.stats["program_hits"] == 1

    def test_program_cache_keyed_by_circuit_without_gst(self, london_backend):
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 6)
        batch = NoisyExecutor(london_backend)
        batch.run_assignments(circuit, ASSIGNMENTS, shots=64, seeds=SEEDS)
        batch.run_assignments(circuit, ASSIGNMENTS, shots=64, seeds=SEEDS)
        assert batch.stats["program_compiles"] == 1
        assert batch.stats["program_hits"] == 1

    def test_process_level_gate_matrix_cache_populated(self, london_backend):
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 3)
        NoisyExecutor(london_backend).run_batch(circuit, [BatchJob(shots=32, seed=1)])
        assert process_cache_stats()["gate_matrices"] > 0


class TestSearchBatchProtocol:
    def test_localized_search_batches_per_neighbourhood(self):
        batches = []

        def score(assignments):
            batches.append(len(assignments))
            return [0.5] * len(assignments)

        LocalizedSearch(group_size=2).run(range(4), score)
        assert batches == [4, 4]

    def test_score_many_length_mismatch_rejected(self):
        """A batch scorer must return one score per candidate."""
        with pytest.raises(ValueError, match="1 scores for 4 assignments"):
            LocalizedSearch(group_size=2).run(range(4), lambda assignments: [0.0])


class TestAdaptBatched:
    @pytest.fixture(scope="class")
    def compiled_qft(self):
        backend = Backend.from_name("ibmq_rome", cycle=0)
        return backend, transpile(qft_benchmark(4, "A"), backend)

    def test_batched_selection_matches_sequential(self, compiled_qft):
        """Each batched decoy score equals a sequential single run under its
        evaluation seed."""
        backend, compiled = compiled_qft
        executor = NoisyExecutor(backend, trajectories=40)
        config = AdaptConfig(decoy_shots=256, group_size=2)
        result = Adapt(executor, config=config, seed=11).select(compiled)
        decoy_gst = backend.schedule(result.decoy.circuit)
        decoy_ideal = result.decoy.ideal_distribution(compiled.output_qubits)
        assert result.search.evaluations
        for i, scored in enumerate(result.search.evaluations):
            # Its own executor, so the single run reaches the engine instead of
            # reading a vector an earlier single run memoized.
            single = NoisyExecutor(backend, trajectories=40).run(
                result.decoy.circuit,
                dd_assignment=scored.assignment,
                shots=config.decoy_shots,
                output_qubits=compiled.output_qubits,
                gst=decoy_gst,
                engine=config.engine,
                seed=evaluation_seed(11, i),
            )
            assert scored.score == fidelity(decoy_ideal, single.probabilities)

    def test_selection_is_deterministic_across_calls(self, compiled_qft):
        backend, compiled = compiled_qft
        executor = NoisyExecutor(backend, trajectories=40)
        adapt = Adapt(executor, config=AdaptConfig(decoy_shots=256, group_size=2), seed=3)
        assert adapt.select(compiled).bitstring == adapt.select(compiled).bitstring


class TestEvaluationBatched:
    def test_evaluate_policies_with_batch_executor(self, rome_backend):
        from repro.workloads import bernstein_vazirani

        compiled = transpile(bernstein_vazirani(4), rome_backend)
        executor = NoisyExecutor(rome_backend, seed=5, trajectories=40)
        policies = [NoDDPolicy(), AllDDPolicy()]
        first = evaluate_policies(compiled, policies, executor, shots=512, seed=5)
        second = evaluate_policies(compiled, policies, executor, shots=512, seed=5)
        assert first.outcomes["no_dd"].fidelity == second.outcomes["no_dd"].fidelity
        assert first.outcomes["all_dd"].fidelity == second.outcomes["all_dd"].fidelity
        assert first.outcomes["no_dd"].relative_fidelity == pytest.approx(1.0)

    def test_seed_decides_final_runs_whatever_the_executor_seed(self, rome_backend):
        from repro.workloads import bernstein_vazirani

        compiled = transpile(bernstein_vazirani(4), rome_backend)

        def fidelities(executor_seed):
            evaluation = evaluate_policies(
                compiled,
                [NoDDPolicy(), AllDDPolicy()],
                NoisyExecutor(rome_backend, seed=executor_seed),
                shots=256,
                seed=5,
                engine="trajectories",
            )
            return {name: o.fidelity for name, o in evaluation.outcomes.items()}

        assert fidelities(1) == fidelities(2)

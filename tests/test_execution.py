"""Tests for the noisy executor: engines, DD interaction, output mapping."""

import math

import pytest

from repro.circuits import QuantumCircuit
from repro.dd import DDAssignment, plan_dd
from repro.hardware import BatchJob, NoisyExecutor
from repro.metrics import fidelity
from repro.simulators import SimulationError, available_engines, get_engine
from repro.transpiler import transpile
from repro.workloads.suite import get_benchmark


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


class TestBasics:
    def test_counts_sum_to_shots(self, london_executor):
        circuit = QuantumCircuit(5).h(0).cx(0, 1).measure(0).measure(1)
        result = london_executor.run(circuit, shots=500)
        assert sum(result.counts.values()) == 500
        assert result.shots == 500

    def test_probabilities_normalised(self, london_executor):
        circuit = QuantumCircuit(5).h(0).cx(0, 1).measure_all()
        result = london_executor.run(circuit, shots=256)
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_output_defaults_to_measured_qubits(self, london_executor):
        circuit = QuantumCircuit(5).x(3).measure(3)
        result = london_executor.run(circuit, shots=128)
        assert result.output_qubits == (3,)
        assert result.probabilities.get("1", 0) > 0.8

    def test_output_qubit_order_is_respected(self, london_executor):
        circuit = QuantumCircuit(5).x(1).measure(1).measure(2)
        forward = london_executor.run(circuit, output_qubits=[1, 2], shots=128)
        reverse = london_executor.run(circuit, output_qubits=[2, 1], shots=128)
        assert forward.most_probable() == "10"
        assert reverse.most_probable() == "01"

    def test_unknown_output_qubit_rejected(self, london_executor):
        circuit = QuantumCircuit(5).x(0).measure(0)
        with pytest.raises(SimulationError):
            london_executor.run(circuit, output_qubits=[4])

    def test_unknown_engine_rejected(self, london_executor):
        circuit = QuantumCircuit(5).x(0).measure(0)
        with pytest.raises(ValueError):
            london_executor.run(circuit, engine="magic")

    def test_unknown_dd_protocol_fails_before_any_engine_run(
        self, london_backend, monkeypatch
    ):
        # A one-byte budget gives every job its own sub-batch: the first job's
        # engine would run before the bad job's sub-batch is reached.
        calls = []
        for name in available_engines():
            engine_class = type(get_engine(name))

            def spy(self, *args, _run=engine_class.run, **kwargs):
                calls.append(self.name)
                return _run(self, *args, **kwargs)

            monkeypatch.setattr(engine_class, "run", spy)
        executor = NoisyExecutor(london_backend, memory_budget_bytes=1)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 6)
        jobs = [
            BatchJob(seed=1, dd_assignment=DDAssignment.all([0])),
            BatchJob(seed=2, dd_assignment=DDAssignment.all([0]), dd_sequence="nope"),
        ]
        with pytest.raises(KeyError, match="unknown DD sequence 'nope'"):
            executor.run_batch(circuit, jobs)
        assert calls == []

    def test_only_active_qubits_simulated(self, toronto_backend):
        executor = NoisyExecutor(toronto_backend, seed=0)
        circuit = QuantumCircuit(27).h(0).cx(0, 1).measure(0).measure(1)
        result = executor.run(circuit, shots=128)
        assert result.num_active_qubits == 2

    def test_metadata_reports_device_and_dd(self, london_executor):
        circuit = QuantumCircuit(5).h(0).measure(0)
        result = london_executor.run(circuit, shots=64)
        assert result.metadata["device"] == "ibmq_london"
        assert result.metadata["dd_sequence"] == "xy4"
        assert result.engine in ("density_matrix", "trajectories", "stabilizer")

    def test_bell_correlations_survive_noise(self, london_executor):
        circuit = QuantumCircuit(5).h(0).cx(0, 1).measure(0).measure(1)
        result = london_executor.run(circuit, shots=2000)
        correlated = result.probability_of("00") + result.probability_of("11")
        assert correlated > 0.85


class TestNoiseEffects:
    def test_noise_lowers_fidelity_vs_ideal(self, london_executor):
        circuit = QuantumCircuit(5)
        for _ in range(6):
            circuit.cx(0, 1)
        circuit.measure(0)
        circuit.measure(1)
        result = london_executor.run(circuit, shots=4000)
        assert result.probability_of("00") < 0.999
        assert result.probability_of("00") > 0.5

    def test_crosstalk_hurts_spectator(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=11)
        short = probe_circuit(5, 0, math.pi / 2, (1, 3), 3)
        long = probe_circuit(5, 0, math.pi / 2, (1, 3), 18)
        fidelity_short = executor.run(short, shots=2000).probability_of("0")
        fidelity_long = executor.run(long, shots=2000).probability_of("0")
        assert fidelity_long < fidelity_short

    def test_dd_improves_crosstalk_limited_probe(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=11)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 18)
        free = executor.run(circuit, shots=3000).probability_of("0")
        protected = executor.run(
            circuit, dd_assignment=DDAssignment.all([0]), shots=3000
        ).probability_of("0")
        assert protected > free

    def test_dd_pulse_count_reported(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=11)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 18)
        result = executor.run(circuit, dd_assignment=DDAssignment.all([0]), shots=64)
        assert result.dd_pulse_count > 0
        baseline = executor.run(circuit, shots=64)
        assert baseline.dd_pulse_count == 0

    @pytest.mark.parametrize("workload", ["BV-7", "QFT-6A", "QFT-6B", "QAOA-8A", "QPEA-5"])
    def test_dd_accounting_matches_plan_dd(self, toronto_backend, workload):
        # The executor counts pulses and protected windows from its own
        # memoized trains; they must equal the plan that builds the DD circuit.
        compiled = transpile(get_benchmark(workload).build(), toronto_backend)
        active = sorted(compiled.gst.active_qubits())
        assignments = [
            DDAssignment.none(),
            DDAssignment.all(active[::2]),
            DDAssignment.all(active),
        ]
        executor = NoisyExecutor(toronto_backend)
        for protocol in ("xy4", "ibmq_dd"):
            results = executor.run_assignments(
                compiled.physical_circuit,
                assignments,
                dd_sequence=protocol,
                shots=16,
                output_qubits=compiled.output_qubits,
                gst=compiled.gst,
                seeds=[1, 2, 3],
            )
            for assignment, result in zip(assignments, results):
                plan = plan_dd(compiled.gst, assignment, protocol)
                assert result.dd_pulse_count == plan.total_pulses
                assert result.metadata["protected_windows"] == plan.num_protected_windows
            assert results[2].dd_pulse_count > 0

    def test_polar_state_immune_to_dephasing(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=11)
        # theta = 0: the qubit stays in |0>, so crosstalk dephasing barely
        # matters and only T1/readout errors remain.
        circuit = probe_circuit(5, 0, 0.0, (1, 3), 18)
        result = executor.run(circuit, shots=3000)
        assert result.probability_of("0") > 0.9


class TestEngines:
    def test_engine_selection_auto(self, london_executor):
        # Clifford-only circuits take the stabilizer fast path under "auto"...
        clifford = QuantumCircuit(5).h(0).measure(0)
        assert london_executor.run(clifford, shots=32).engine == "stabilizer"
        # ...while anything non-Clifford falls back to the dense engines.
        generic = QuantumCircuit(5).ry(0.3, 0).measure(0)
        assert london_executor.run(generic, shots=32).engine == "density_matrix"

    def test_engines_agree_on_distribution(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=29, trajectories=400)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 8)
        dm = executor.run(circuit, shots=4000, engine="density_matrix")
        mc = executor.run(circuit, shots=4000, engine="trajectories")
        assert fidelity(dm.probabilities, mc.probabilities) > 0.95

    def test_trajectory_engine_handles_dd(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=29, trajectories=150)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 12)
        result = executor.run(
            circuit, dd_assignment=DDAssignment.all([0]), shots=1000, engine="trajectories"
        )
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_seeded_runs_are_reproducible(self, london_backend):
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 6)
        a = NoisyExecutor(london_backend, seed=77).run(circuit, shots=500)
        b = NoisyExecutor(london_backend, seed=77).run(circuit, shots=500)
        assert a.counts == b.counts
        assert a.probabilities == pytest.approx(b.probabilities)

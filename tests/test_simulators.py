"""Tests for the statevector, density-matrix and stabilizer simulators and their consistency."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import DensityMatrixSimulator
from repro.circuits import QuantumCircuit
from repro.simulators import SimulationError, StabilizerSimulator, StatevectorSimulator
from repro.simulators import channels

from repro.testing import random_single_qubit_circuit


def as_dict(probabilities: np.ndarray, num_qubits: int) -> dict:
    return {
        format(i, f"0{num_qubits}b"): float(p)
        for i, p in enumerate(probabilities)
        if p > 1e-12
    }


class TestStatevector:
    def test_bell_state(self, bell_circuit):
        probs = StatevectorSimulator().probabilities(bell_circuit)
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_ghz_state(self, ghz3_circuit):
        probs = StatevectorSimulator().probabilities(ghz3_circuit)
        assert probs[0] == pytest.approx(0.5)
        assert probs[7] == pytest.approx(0.5)

    def test_qubit_zero_is_most_significant_bit(self):
        circuit = QuantumCircuit(3).x(0)
        probs = StatevectorSimulator().probabilities(circuit)
        assert probs[0b100] == pytest.approx(1.0)

    def test_counts_sum_to_shots(self, bell_circuit, rng):
        counts = StatevectorSimulator().counts(bell_circuit, shots=512, rng=rng)
        assert sum(counts.values()) == 512
        assert set(counts) <= {"00", "11"}

    def test_measurement_is_terminal(self):
        circuit = QuantumCircuit(1).measure(0).x(0)
        with pytest.raises(SimulationError):
            StatevectorSimulator().run(circuit)

    def test_qubit_limit_enforced(self):
        with pytest.raises(SimulationError):
            StatevectorSimulator(max_qubits=3).run(QuantumCircuit(4).h(0))

    def test_reset_returns_qubit_to_zero(self):
        circuit = QuantumCircuit(1).x(0).reset(0)
        probs = StatevectorSimulator().probabilities(circuit)
        assert probs[0] == pytest.approx(1.0)

    def test_delay_and_barrier_are_noops(self):
        circuit = QuantumCircuit(2).h(0).barrier().delay(100.0, 1).cx(0, 1)
        probs = StatevectorSimulator().probabilities(circuit)
        assert np.allclose(probs, [0.5, 0, 0, 0.5])

    def test_matches_explicit_unitary(self, rng):
        circuit = random_single_qubit_circuit(3, 20, rng)
        unitary_probs = np.abs(circuit.to_unitary()[:, 0]) ** 2
        assert np.allclose(
            StatevectorSimulator().probabilities(circuit), unitary_probs, atol=1e-9
        )


class TestDensityMatrix:
    def test_matches_statevector_for_unitary_circuits(self, rng):
        circuit = random_single_qubit_circuit(3, 25, rng)
        simulator = DensityMatrixSimulator(3)
        simulator.run_circuit(circuit)
        assert np.allclose(
            simulator.probabilities(),
            StatevectorSimulator().probabilities(circuit),
            atol=1e-9,
        )

    def test_pure_state_has_unit_purity(self, bell_circuit):
        simulator = DensityMatrixSimulator(2)
        simulator.run_circuit(bell_circuit)
        assert simulator.purity() == pytest.approx(1.0)
        assert simulator.trace() == pytest.approx(1.0)

    def test_depolarizing_reduces_purity_but_preserves_trace(self):
        simulator = DensityMatrixSimulator(1)
        simulator.apply_gate_sequence = None  # not part of the API; guard nothing
        simulator.apply_kraus(channels.depolarizing(0.3), [0])
        assert simulator.trace() == pytest.approx(1.0)
        assert simulator.purity() < 1.0

    def test_amplitude_damping_moves_population_to_zero(self):
        simulator = DensityMatrixSimulator(1)
        simulator.apply_unitary(np.array([[0, 1], [1, 0]], dtype=complex), [0])
        simulator.apply_kraus(channels.amplitude_damping(0.4), [0])
        probs = simulator.probabilities()
        assert probs[0] == pytest.approx(0.4)
        assert probs[1] == pytest.approx(0.6)

    def test_phase_damping_kills_coherence_not_population(self):
        simulator = DensityMatrixSimulator(1)
        simulator.apply_unitary(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2), [0])
        before = simulator.density_matrix.copy()
        simulator.apply_kraus(channels.phase_damping(1.0), [0])
        after = simulator.density_matrix
        assert np.allclose(np.diag(after), np.diag(before))
        assert abs(after[0, 1]) < 1e-12

    def test_expectation_z(self):
        simulator = DensityMatrixSimulator(2)
        simulator.apply_gate_sequence = None
        simulator.apply_unitary(np.array([[0, 1], [1, 0]], dtype=complex), [1])
        assert simulator.expectation_z(0) == pytest.approx(1.0)
        assert simulator.expectation_z(1) == pytest.approx(-1.0)

    def test_counts_shape(self, bell_circuit, rng):
        simulator = DensityMatrixSimulator(2)
        simulator.run_circuit(bell_circuit)
        counts = simulator.counts(256, rng=rng)
        assert sum(counts.values()) == 256

    def test_size_limit(self):
        with pytest.raises(SimulationError):
            DensityMatrixSimulator(13, max_qubits=12)

    def test_set_density_matrix_validates_shape(self):
        simulator = DensityMatrixSimulator(2)
        with pytest.raises(SimulationError):
            simulator.set_density_matrix(np.eye(2))


class TestStabilizer:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_statevector_on_random_clifford_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circuit = random_single_qubit_circuit(4, 30, rng, clifford_only=True)
        stab = StabilizerSimulator(seed=1).probabilities(circuit)
        dense = StatevectorSimulator().probabilities(circuit)
        dense_dict = as_dict(dense, 4)
        assert set(stab) == set(dense_dict)
        for key, value in dense_dict.items():
            assert stab[key] == pytest.approx(value, abs=1e-9)

    def test_clifford_rz_angles(self):
        circuit = QuantumCircuit(1).h(0).rz(math.pi / 2, 0).h(0)
        stab = StabilizerSimulator().probabilities(circuit)
        dense = as_dict(StatevectorSimulator().probabilities(circuit), 1)
        assert stab == pytest.approx(dense)

    def test_non_clifford_rotation_rejected(self):
        circuit = QuantumCircuit(1).rz(0.3, 0)
        with pytest.raises(SimulationError):
            StabilizerSimulator().probabilities(circuit)

    def test_t_gate_rejected(self):
        with pytest.raises(SimulationError):
            StabilizerSimulator().probabilities(QuantumCircuit(1).t(0))

    def test_counts_respect_support(self, ghz3_circuit):
        counts = StabilizerSimulator(seed=3).counts(ghz3_circuit, shots=200)
        assert sum(counts.values()) == 200
        assert set(counts) <= {"000", "111"}

    def test_deterministic_measurement(self):
        circuit = QuantumCircuit(2).x(0)
        tableau = StabilizerSimulator().run(circuit)
        assert tableau.is_deterministic(0)
        assert tableau.is_deterministic(1)

    def test_large_clifford_circuit_is_fast(self):
        # 60-qubit GHZ: far beyond dense simulation, trivial for the tableau.
        circuit = QuantumCircuit(60)
        circuit.h(0)
        for q in range(59):
            circuit.cx(q, q + 1)
        probs = StabilizerSimulator().probabilities(circuit)
        assert probs == pytest.approx({"0" * 60: 0.5, "1" * 60: 0.5})

    def test_reset_in_stabilizer(self):
        circuit = QuantumCircuit(1).x(0).reset(0)
        probs = StabilizerSimulator().probabilities(circuit)
        assert probs == pytest.approx({"0": 1.0})

    def test_probabilities_copy_budget_on_ghz16(self, monkeypatch):
        """The support costs one tableau copy per free bit.

        The 16-qubit GHZ state has a single free bit, so the support must
        clone exactly once — the regression guarded here is a copy per
        measured qubit, which scales with width instead of with the number
        of free bits.
        """
        from repro.simulators import stabilizer as stabilizer_module

        circuit = QuantumCircuit(16)
        circuit.h(0)
        for qubit in range(15):
            circuit.cx(qubit, qubit + 1)
        copies = []
        monkeypatch.setattr(stabilizer_module, "_COPY_HOOK", lambda: copies.append(1))
        probs = StabilizerSimulator().probabilities(circuit)
        assert probs == pytest.approx({"0" * 16: 0.5, "1" * 16: 0.5})
        assert len(copies) == 1

    def test_probabilities_copy_budget_two_branch_points(self, monkeypatch):
        from repro.simulators import stabilizer as stabilizer_module

        circuit = QuantumCircuit(16)
        circuit.h(0)
        circuit.h(8)
        for qubit in range(7):
            circuit.cx(qubit, qubit + 1)
            circuit.cx(qubit + 8, qubit + 9)
        copies = []
        monkeypatch.setattr(stabilizer_module, "_COPY_HOOK", lambda: copies.append(1))
        probs = StabilizerSimulator().probabilities(circuit)
        assert len(probs) == 4
        assert len(copies) == 2  # one per free bit

    def test_probabilities_copy_budget_basis_state(self, monkeypatch):
        from repro.simulators import stabilizer as stabilizer_module

        circuit = QuantumCircuit(16).x(3).x(11)
        copies = []
        monkeypatch.setattr(stabilizer_module, "_COPY_HOOK", lambda: copies.append(1))
        probs = StabilizerSimulator().probabilities(circuit)
        assert probs == {"0001000000010000": 1.0}
        assert len(copies) == 0  # no free bit: one pass, in place


class TestChannels:
    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_depolarizing_is_trace_preserving(self, p):
        assert channels.is_valid_channel(channels.depolarizing(p))

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_two_qubit_depolarizing_is_trace_preserving(self, p):
        assert channels.is_valid_channel(channels.depolarizing_two_qubit(p))

    @pytest.mark.parametrize(
        "p", [0.0, 1e-300, 1e-9, 0.003, 0.0117, 0.05, 1 / 3, 0.5, 15 / 16, 1 - 1e-12, 1.0]
    )
    def test_two_qubit_depolarizing_keeps_the_kron_bytes(self, p):
        """Scaled shared unit products equal a fresh ``np.kron`` per matrix."""
        paulis = [
            np.eye(2, dtype=complex),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        expected = [
            math.sqrt(1 - p if (a, b) == (0, 0) else p / 15) * np.kron(paulis[a], paulis[b])
            for a in range(4)
            for b in range(4)
        ]
        got = channels.depolarizing_two_qubit(p)
        assert [k.tobytes() for k in got] == [k.tobytes() for k in expected]

    @given(gamma=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_damping_channels_are_trace_preserving(self, gamma, lam):
        assert channels.is_valid_channel(channels.amplitude_damping(gamma))
        assert channels.is_valid_channel(channels.phase_damping(lam))

    @given(
        duration=st.floats(0.0, 1e6),
        t1=st.floats(1e3, 5e5),
        t2_scale=st.floats(0.1, 2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_thermal_relaxation_is_trace_preserving(self, duration, t1, t2_scale):
        assert channels.is_valid_channel(
            channels.thermal_relaxation(duration, t1, t1 * t2_scale)
        )

    def test_invalid_probability_rejected(self):
        with pytest.raises(channels.ChannelError):
            channels.depolarizing(1.5)
        with pytest.raises(channels.ChannelError):
            channels.amplitude_damping(-0.1)

    def test_measurement_confusion_columns_sum_to_one(self):
        matrix = channels.measurement_confusion(0.02, 0.05)
        assert np.allclose(matrix.sum(axis=0), [1.0, 1.0])

    def test_compose_channels_is_valid(self):
        composed = channels.compose_channels(
            channels.amplitude_damping(0.2), channels.phase_damping(0.3)
        )
        assert channels.is_valid_channel(composed)

    def test_identity_channel(self):
        assert channels.is_valid_channel(channels.identity_channel(2))

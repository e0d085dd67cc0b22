"""Unit tests for QuantumCircuit."""

import math

import numpy as np
import pytest

from repro.circuits import CircuitError, Gate, QuantumCircuit
from repro.simulators import StatevectorSimulator

from repro.testing import random_single_qubit_circuit


class TestBuilder:
    def test_requires_positive_size(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_builder_methods_chain(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).rz(0.5, 1).measure_all()
        assert len(circuit) == 5
        assert circuit.count_ops() == {"h": 1, "cx": 1, "rz": 1, "measure": 2}

    def test_append_validates_register_bounds(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(CircuitError):
            circuit.append(Gate("x", (5,)))

    def test_iteration_and_indexing(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        assert circuit[0].name == "h"
        assert [g.name for g in circuit] == ["h", "cx"]

    def test_equality(self):
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(0).cx(0, 1)
        c = QuantumCircuit(2).h(1).cx(0, 1)
        assert a == b
        assert a != c

    def test_barrier_defaults_to_all_qubits(self):
        circuit = QuantumCircuit(3).barrier()
        assert circuit[0].qubits == (0, 1, 2)

    def test_delay_requires_duration_via_builder(self):
        circuit = QuantumCircuit(1).delay(100.0, 0)
        assert circuit[0].duration == 100.0


class TestStructuralQueries:
    def test_depth_counts_longest_chain(self):
        circuit = QuantumCircuit(3).h(0).h(1).cx(0, 1).cx(1, 2).h(2)
        assert circuit.depth() == 4

    def test_barrier_adds_no_depth_but_synchronizes(self):
        # The barrier itself is not a layer, but gates after it cannot be
        # merged into layers before it.
        with_barrier = QuantumCircuit(2).h(0).barrier().h(1)
        assert with_barrier.depth() == 2
        no_barrier = QuantumCircuit(2).h(0).h(1)
        assert no_barrier.depth() == 1

    def test_num_gates_excludes_barriers(self):
        circuit = QuantumCircuit(2).h(0).barrier().cx(0, 1)
        assert circuit.num_gates == 2

    def test_two_qubit_and_measurement_counters(self):
        circuit = QuantumCircuit(3).cx(0, 1).swap(1, 2).measure_all()
        assert circuit.num_two_qubit_gates == 2
        assert circuit.num_measurements == 3

    def test_qubits_used(self):
        circuit = QuantumCircuit(5).h(1).cx(1, 3)
        assert circuit.qubits_used() == (1, 3)

    def test_two_qubit_structure(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).t(2).cx(1, 2)
        assert circuit.two_qubit_structure() == ((1, (0, 1)), (3, (1, 2)))

    def test_is_clifford_only(self):
        clifford = QuantumCircuit(2).h(0).s(1).cx(0, 1).measure_all()
        assert clifford.is_clifford_only()
        not_clifford = QuantumCircuit(2).t(0).cx(0, 1)
        assert not not_clifford.is_clifford_only()


class TestTransformations:
    def test_copy_is_independent(self):
        original = QuantumCircuit(2).h(0)
        clone = original.copy()
        clone.x(1)
        assert len(original) == 1
        assert len(clone) == 2

    def test_compose_appends_other_circuit(self):
        first = QuantumCircuit(2).h(0)
        second = QuantumCircuit(2).cx(0, 1)
        merged = first.compose(second)
        assert [g.name for g in merged] == ["h", "cx"]

    def test_compose_rejects_larger_register(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_remap_moves_qubits(self):
        circuit = QuantumCircuit(2).cx(0, 1)
        remapped = circuit.remap({0: 4, 1: 2}, num_qubits=5)
        assert remapped[0].qubits == (4, 2)
        assert remapped.num_qubits == 5

    def test_remap_requires_injective_mapping(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).cx(0, 1).remap({0: 1, 1: 1})

    def test_remap_missing_qubit_raises(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).cx(0, 1).remap({0: 0})

    def test_compact_drops_unused_qubits(self):
        circuit = QuantumCircuit(6).h(2).cx(2, 5).measure(5)
        compacted, used = circuit.compact()
        assert used == (2, 5)
        assert compacted.num_qubits == 2
        assert compacted[1].qubits == (0, 1)

    def test_compact_of_empty_circuit(self):
        compacted, used = QuantumCircuit(3).compact()
        assert compacted.num_qubits == 1
        assert used == (0,)

    def test_without_measurements(self):
        circuit = QuantumCircuit(2).h(0).measure_all().barrier()
        stripped = circuit.without_measurements()
        assert [g.name for g in stripped] == ["h"]

    def test_inverse_reverses_and_inverts(self):
        circuit = QuantumCircuit(2).h(0).s(0).cx(0, 1).rz(0.7, 1)
        inverse = circuit.inverse()
        assert [g.name for g in inverse] == ["rz", "cx", "sdg", "h"]
        assert inverse[0].params == (-0.7,)

    def test_inverse_rejects_measurement(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1).measure(0).inverse()

    def test_inverse_composes_to_identity(self, rng):
        circuit = random_single_qubit_circuit(3, 15, rng)
        identity = circuit.compose(circuit.inverse()).to_unitary()
        phase = identity[0, 0]
        assert abs(abs(phase) - 1) < 1e-9
        assert np.allclose(identity, phase * np.eye(8), atol=1e-8)

    def test_map_gates_expands(self):
        circuit = QuantumCircuit(1).h(0)
        doubled = circuit.map_gates(lambda g: [g, g])
        assert len(doubled) == 2


class TestUnitarySemantics:
    def test_to_unitary_matches_statevector(self, rng):
        simulator = StatevectorSimulator()
        circuit = random_single_qubit_circuit(3, 20, rng)
        unitary = circuit.to_unitary()
        column = unitary[:, 0]
        assert np.allclose(np.abs(column) ** 2, simulator.probabilities(circuit), atol=1e-9)

    def test_to_unitary_rejects_measurement(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(1).measure(0).to_unitary()

    def test_bell_unitary(self, bell_circuit):
        unitary = bell_circuit.to_unitary()
        state = unitary[:, 0]
        assert np.allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5])


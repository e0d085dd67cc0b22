"""Tests for the transpiler: decomposition, layout, routing, optimization."""

import math
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import networkx_graph

from repro.circuits import Gate, QuantumCircuit
from repro.simulators import StatevectorSimulator
from repro.transpiler import (
    Layout,
    decompose_to_basis,
    merge_rotations,
    noise_adaptive_layout,
    optimize_circuit,
    sabre_route,
    single_qubit_basis_gates,
    transpile,
    trivial_layout,
    zyz_angles,
)
from repro.transpiler.layout import interaction_graph
from repro.workloads import bernstein_vazirani, get_benchmark, ghz, qaoa_benchmark, qft_benchmark

from repro.testing import random_single_qubit_circuit


def equivalent_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-8) -> bool:
    index = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[index]) < 1e-12:
        return np.allclose(a, b, atol=atol)
    phase = a[index] / b[index]
    return np.allclose(a, phase * b, atol=atol)


def ideal_distribution(circuit, output_qubits=None):
    simulator = StatevectorSimulator()
    compacted, used = circuit.compact()
    probabilities = simulator.probabilities(compacted)
    position = {q: i for i, q in enumerate(used)}
    outputs = output_qubits if output_qubits is not None else used
    n = compacted.num_qubits
    distribution = {}
    for index, p in enumerate(probabilities):
        if p <= 1e-12:
            continue
        bits = format(index, f"0{n}b")
        key = "".join(bits[position[q]] for q in outputs)
        distribution[key] = distribution.get(key, 0.0) + float(p)
    return distribution


class TestDecompose:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("h", ()), ("y", ()), ("z", ()), ("s", ()), ("t", ()), ("sxdg", ()),
            ("rx", (0.7,)), ("ry", (2.1,)), ("rz", (1.3,)),
            ("u2", (0.3, 1.1)), ("u3", (1.2, 0.4, 2.2)),
        ],
    )
    def test_single_qubit_decomposition_is_exact(self, name, params):
        gate = Gate(name, (0,), params)
        rebuilt = np.eye(2, dtype=complex)
        for sub in single_qubit_basis_gates(gate):
            rebuilt = sub.matrix() @ rebuilt
        assert equivalent_up_to_phase(gate.matrix(), rebuilt)

    def test_decomposition_only_emits_basis_gates(self):
        circuit = QuantumCircuit(3).h(0).u3(1.0, 0.2, 0.4, 1).cz(0, 1).swap(1, 2).t(2)
        lowered = decompose_to_basis(circuit)
        assert set(lowered.count_ops()) <= {"rz", "sx", "x", "cx"}

    def test_circuit_level_equivalence(self, rng):
        circuit = random_single_qubit_circuit(3, 20, rng)
        lowered = decompose_to_basis(circuit)
        assert equivalent_up_to_phase(circuit.to_unitary(), lowered.to_unitary())

    def test_measure_and_barrier_pass_through(self):
        circuit = QuantumCircuit(2).h(0).barrier().measure_all()
        lowered = decompose_to_basis(circuit)
        assert lowered.num_measurements == 2
        assert any(g.is_barrier for g in lowered)

    @given(
        theta=st.floats(0, math.pi),
        phi=st.floats(0, 2 * math.pi),
        lam=st.floats(0, 2 * math.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_zyz_angles_reconstruct_any_unitary(self, theta, phi, lam):
        from repro.circuits.gates import u3_matrix, rz_matrix, ry_matrix

        target = u3_matrix(theta, phi, lam)
        t, p, l = zyz_angles(target)
        rebuilt = rz_matrix(p) @ ry_matrix(t) @ rz_matrix(l)
        assert equivalent_up_to_phase(target, rebuilt, atol=1e-7)

    def test_identity_gates_dropped(self):
        lowered = decompose_to_basis(QuantumCircuit(1).i(0))
        assert len(lowered) == 0


class TestLayout:
    def test_trivial_layout(self):
        layout = trivial_layout(4)
        assert layout.physical_qubits() == (0, 1, 2, 3)
        assert layout.physical(2) == 2

    def test_noise_adaptive_layout_is_injective(self, toronto_backend):
        circuit = qaoa_benchmark(8, "A")
        layout = noise_adaptive_layout(circuit, toronto_backend)
        physical = layout.physical_qubits()
        assert len(set(physical)) == len(physical) == 8
        assert all(0 <= q < 27 for q in physical)

    def test_layout_region_is_connected(self, toronto_backend):
        circuit = qft_benchmark(6, "A")
        layout = noise_adaptive_layout(circuit, toronto_backend)
        graph = networkx_graph(toronto_backend.edges, toronto_backend.num_qubits)
        assert nx.is_connected(graph.subgraph(layout.physical_qubits()))

    @pytest.mark.parametrize("workload", ["QFT-7B", "QAOA-10B"])
    def test_interaction_graph_matches_networkx(self, workload):
        # Same partners in networkx's adjacency order, one count per gate.
        circuit = decompose_to_basis(get_benchmark(workload).build())
        pairs = [gate.qubits for gate in circuit if gate.is_two_qubit]
        reference = networkx_graph(pairs, circuit.num_qubits)
        graph = interaction_graph(circuit)
        assert [list(graph[q]) for q in graph] == [list(reference[q]) for q in reference]
        counts = Counter(frozenset(pair) for pair in pairs)
        assert {frozenset((a, b)): graph[a][b] for a in graph for b in graph[a]} == counts

    def test_program_larger_than_device_rejected(self, rome_backend):
        with pytest.raises(ValueError):
            noise_adaptive_layout(QuantumCircuit(9).h(0), rome_backend)

    def test_layout_as_dict(self):
        layout = Layout((4, 2, 7))
        assert layout.as_dict() == {0: 4, 1: 2, 2: 7}
        assert layout.num_logical == 3


class TestRouting:
    def _assert_all_two_qubit_gates_on_edges(self, circuit, backend):
        for gate in circuit:
            if gate.is_two_qubit:
                assert backend.device.has_edge(*gate.qubits), gate

    def test_routed_gates_respect_coupling(self, toronto_backend):
        circuit = qft_benchmark(5, "A")
        layout = noise_adaptive_layout(circuit, toronto_backend)
        routed = sabre_route(decompose_to_basis(circuit), toronto_backend, layout)
        self._assert_all_two_qubit_gates_on_edges(routed.circuit, toronto_backend)

    def test_routing_preserves_semantics(self, toronto_backend):
        circuit = ghz(4)
        compiled = transpile(circuit, toronto_backend)
        logical = ideal_distribution(circuit)
        physical = ideal_distribution(
            compiled.physical_circuit, compiled.output_qubits
        )
        assert logical == pytest.approx(physical, abs=1e-9)

    def test_no_swaps_needed_for_adjacent_program(self, rome_backend):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        routed = sabre_route(circuit, rome_backend, trivial_layout(3))
        assert routed.num_swaps == 0

    def test_swaps_inserted_for_distant_interaction(self, rome_backend):
        circuit = QuantumCircuit(5).cx(0, 4).measure_all()
        routed = sabre_route(circuit, rome_backend, trivial_layout(5))
        assert routed.num_swaps >= 2
        self._assert_all_two_qubit_gates_on_edges(routed.circuit, rome_backend)

    def test_final_layout_tracks_swaps(self, rome_backend):
        circuit = QuantumCircuit(5).cx(0, 4).measure_all()
        routed = sabre_route(circuit, rome_backend, trivial_layout(5))
        assert routed.final_layout.physical_qubits() != routed.initial_layout.physical_qubits()

    def test_measurements_emitted_at_final_positions(self, rome_backend):
        circuit = QuantumCircuit(5).cx(0, 4).measure_all()
        routed = sabre_route(circuit, rome_backend, trivial_layout(5))
        measures = [g for g in routed.circuit if g.is_measurement]
        assert len(measures) == 5
        # Measurements must come after every SWAP so the final layout is valid.
        last_swap_index = max(
            i for i, g in enumerate(routed.circuit) if g.name == "swap"
        )
        first_measure_index = min(
            i for i, g in enumerate(routed.circuit) if g.is_measurement
        )
        assert first_measure_index > last_swap_index


class TestOptimization:
    def test_adjacent_self_inverse_pairs_cancel(self):
        circuit = QuantumCircuit(2).h(0).h(0).cx(0, 1).cx(0, 1).x(1).x(1)
        assert len(optimize_circuit(circuit)) == 0

    def test_rz_merging(self):
        circuit = QuantumCircuit(1).rz(0.3, 0).rz(0.4, 0).rz(-0.7, 0)
        assert len(optimize_circuit(circuit)) == 0

    def test_merge_keeps_nonzero_rotation(self):
        circuit = QuantumCircuit(1).rz(0.3, 0).rz(0.4, 0)
        merged = merge_rotations(circuit)
        assert len(merged) == 1
        assert merged[0].params[0] == pytest.approx(0.7)

    def test_interleaved_gates_prevent_cancellation(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).h(0)
        assert len(optimize_circuit(circuit)) == 3

    def test_identity_and_zero_rotations_removed(self):
        circuit = QuantumCircuit(1).i(0).rz(0.0, 0).rz(2 * math.pi, 0).x(0)
        assert [g.name for g in optimize_circuit(circuit)] == ["x"]

    def test_optimization_preserves_semantics(self, rng):
        circuit = random_single_qubit_circuit(3, 30, rng)
        optimized = optimize_circuit(decompose_to_basis(circuit))
        assert equivalent_up_to_phase(circuit.to_unitary(), optimized.to_unitary())

    def test_optimization_never_grows_circuit(self, rng):
        circuit = random_single_qubit_circuit(4, 40, rng)
        assert len(optimize_circuit(circuit)) <= len(circuit)


class TestTranspile:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: bernstein_vazirani(5),
            lambda: qft_benchmark(4, "A"),
            lambda: qaoa_benchmark(5, "A"),
            lambda: ghz(4),
        ],
    )
    def test_end_to_end_semantic_equivalence(self, toronto_backend, builder):
        circuit = builder()
        compiled = transpile(circuit, toronto_backend)
        logical = ideal_distribution(circuit)
        physical = ideal_distribution(compiled.physical_circuit, compiled.output_qubits)
        assert set(logical) == set(physical)
        for key, value in logical.items():
            assert physical[key] == pytest.approx(value, abs=1e-7)

    def test_output_is_in_basis_gate_set(self, toronto_backend):
        compiled = transpile(bernstein_vazirani(5), toronto_backend)
        names = set(compiled.physical_circuit.count_ops())
        assert names <= {"rz", "sx", "x", "cx", "measure", "barrier", "delay"}

    def test_compiled_statistics_are_populated(self, toronto_backend):
        compiled = transpile(qft_benchmark(5, "A"), toronto_backend)
        assert compiled.gate_count() > 0
        assert compiled.depth() > 0
        assert compiled.latency_us() > 0
        assert compiled.average_idle_time_us() >= 0
        assert len(compiled.output_qubits) == 5
        assert set(compiled.output_qubits) <= set(compiled.program_qubits)

    def test_explicit_layout_is_honoured(self, rome_backend):
        circuit = ghz(3)
        compiled = transpile(circuit, rome_backend, layout=Layout((2, 1, 0)))
        assert compiled.initial_layout.physical_qubits() == (2, 1, 0)

    def test_gst_is_cached(self, rome_backend):
        compiled = transpile(ghz(3), rome_backend)
        assert compiled.gst is compiled.gst


class TestDistanceCacheRegression:
    """Cold/warm: the whole pipeline shares one graph traversal per backend."""

    def test_transpile_performs_one_graph_traversal_per_backend(self):
        from repro.hardware import Backend, topologies

        topologies.clear_distance_cache()
        backend = Backend.from_name("ibm_washington")  # calibration builds once
        assert topologies.DISTANCE_CACHE_STATS["builds"] == 1
        circuit = qft_benchmark(6, "A")
        cold = transpile(circuit, backend)  # layout + routing reuse the build
        assert topologies.DISTANCE_CACHE_STATS["builds"] == 1
        warm = transpile(circuit, backend)
        assert topologies.DISTANCE_CACHE_STATS["builds"] == 1
        assert warm.physical_circuit.gates == cold.physical_circuit.gates
        # A different calibration cycle of the same device still shares it.
        transpile(circuit, backend.with_calibration_cycle(2))
        assert topologies.DISTANCE_CACHE_STATS["builds"] == 1

    def test_routed_127q_program_respects_coupling(self):
        from repro.hardware import Backend

        backend = Backend.from_name("ibm_washington")
        compiled = transpile(qft_benchmark(6, "A"), backend)
        edge_set = {frozenset(edge) for edge in backend.edges}
        for gate in compiled.physical_circuit:
            if gate.is_two_qubit:
                assert frozenset(gate.qubits) in edge_set

    def test_disconnected_routing_fails_descriptively(self):
        from repro.hardware import Backend, synthetic_device

        backend = Backend(
            synthetic_device(4, edges=[(0, 1), (2, 3)], name="split4")
        )
        circuit = QuantumCircuit(4).cx(0, 1).cx(0, 2)
        with pytest.raises(RuntimeError, match="disconnected"):
            sabre_route(circuit, backend, trivial_layout(4))

"""Tests for topologies, device specs, calibration snapshots and backends."""

import gc
import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import networkx_graph

from repro.circuits import Gate, QuantumCircuit
from repro.hardware import (
    Backend,
    DeviceSpec,
    generate_calibration,
    get_device,
    list_devices,
    synthetic_device,
    topologies,
)


class TestTopologies:
    def test_paper_qubit_link_combination_counts(self):
        # Section 3.2 / 3.3: 224 combinations on Guadalupe, 700 on Toronto.
        guadalupe = get_device("ibmq_guadalupe")
        toronto = get_device("ibmq_toronto")
        assert len(guadalupe.qubit_link_combinations()) == 224
        assert len(toronto.qubit_link_combinations()) == 700

    def test_device_sizes(self):
        assert get_device("ibmq_guadalupe").num_qubits == 16
        assert get_device("ibmq_paris").num_qubits == 27
        assert get_device("ibmq_toronto").num_qubits == 27
        assert get_device("ibmq_rome").num_qubits == 5

    def test_coupling_graphs_are_connected(self):
        for name in list_devices():
            device = get_device(name)
            assert nx.is_connected(networkx_graph(device.edges, device.num_qubits)), name

    def test_line_and_all_to_all(self):
        assert topologies.line(4) == [(0, 1), (1, 2), (2, 3)]
        assert len(topologies.all_to_all(5)) == 10

    def test_neighbors(self):
        device = get_device("ibmq_rome")
        assert topologies.neighbors(device.edges, 2) == frozenset({1, 3})

    def test_distance_matrix_symmetry(self):
        device = get_device("ibmq_guadalupe")
        distances = topologies.distance_matrix(device.edges, device.num_qubits)
        assert distances[(0, 3)] == distances[(3, 0)]
        assert distances[(0, 0)] == 0

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            topologies.device_edges("ibmq_nowhere")
        with pytest.raises(KeyError):
            get_device("ibmq_nowhere")


class TestDeviceSpec:
    def test_registry_has_paper_error_rates(self):
        toronto = get_device("ibmq_toronto")
        assert toronto.cnot_error == pytest.approx(0.0152)
        assert toronto.measurement_error == pytest.approx(0.0442)
        assert toronto.t1_us == pytest.approx(105.0)
        assert toronto.t2_us == pytest.approx(114.0)

    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad", num_qubits=2, edges=((0, 5),),
                cnot_error=0.01, measurement_error=0.02, sq_error=0.001,
                t1_us=50, t2_us=50,
            )
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad", num_qubits=2, edges=((1, 1),),
                cnot_error=0.01, measurement_error=0.02, sq_error=0.001,
                t1_us=50, t2_us=50,
            )

    def test_has_edge_is_undirected(self):
        device = get_device("ibmq_rome")
        assert device.has_edge(0, 1)
        assert device.has_edge(1, 0)
        assert not device.has_edge(0, 4)

    def test_synthetic_all_to_all_device(self):
        device = synthetic_device(6, template="ibmq_toronto")
        assert device.num_qubits == 6
        assert len(device.edges) == 15
        assert device.cnot_error == get_device("ibmq_toronto").cnot_error


class TestCalibration:
    def test_same_cycle_is_deterministic(self):
        device = get_device("ibmq_guadalupe")
        a = generate_calibration(device, cycle=3)
        b = generate_calibration(device, cycle=3)
        assert a.qubit(0).t1_ns == b.qubit(0).t1_ns
        assert a.link((0, 1)).cnot_error == b.link((0, 1)).cnot_error

    def test_different_cycles_differ(self):
        device = get_device("ibmq_guadalupe")
        a = generate_calibration(device, cycle=0)
        b = generate_calibration(device, cycle=1)
        assert a.qubit(0).t1_ns != b.qubit(0).t1_ns

    @pytest.mark.parametrize("name", ["ibmq_rome", "ibmq_guadalupe", "ibmq_toronto"])
    def test_values_are_physical(self, name):
        calibration = generate_calibration(get_device(name), cycle=0)
        for qubit_cal in calibration.qubits.values():
            assert qubit_cal.t1_ns > 0
            assert 0 < qubit_cal.t2_ns <= 2 * qubit_cal.t1_ns + 1e-6
            assert 0 <= qubit_cal.sq_error <= 0.05
            assert 0 <= qubit_cal.readout_p01 <= 0.5
            assert 0 <= qubit_cal.readout_p10 <= 0.5
            assert 0 < qubit_cal.dd_floor < 1
            assert qubit_cal.noise_correlation_ns > 0
        for link_cal in calibration.links.values():
            assert 0 < link_cal.cnot_error <= 0.2
            assert link_cal.duration_ns > 100

    def test_link_lookup_is_order_insensitive(self):
        calibration = generate_calibration(get_device("ibmq_rome"), cycle=0)
        assert calibration.cnot_duration(0, 1) == calibration.cnot_duration(1, 0)
        assert calibration.cnot_error(0, 1) == calibration.cnot_error(1, 0)

    def test_missing_link_raises(self):
        calibration = generate_calibration(get_device("ibmq_rome"), cycle=0)
        with pytest.raises(KeyError):
            calibration.link((0, 4))

    def test_crosstalk_defaults_to_neutral(self):
        calibration = generate_calibration(get_device("ibmq_rome"), cycle=0)
        column = calibration.crosstalk_links.index((0, 1))
        # Qubit 0 sits on the link itself.
        assert calibration.dephasing_multipliers[0, column] == 1.0
        assert calibration.zz_shift_rates[0, column] == 0.0
        excess, zz_rates = calibration.crosstalk_columns([(1, 0)])
        assert excess[0, 0] == 0.0 and zz_rates[0, 0] == 0.0

    def test_adjacent_crosstalk_stronger_than_distant_on_average(self):
        device = get_device("ibmq_toronto")
        calibration = generate_calibration(device, cycle=0)
        adjacent, distant = [], []
        distances = topologies.distance_matrix(device.edges, device.num_qubits)
        for column, link in enumerate(calibration.crosstalk_links):
            for qubit in range(device.num_qubits):
                if qubit in link:
                    continue
                multiplier = calibration.dephasing_multipliers[qubit, column]
                distance = min(distances[(qubit, link[0])], distances[(qubit, link[1])])
                if distance <= 1:
                    adjacent.append(multiplier)
                elif distance >= 3:
                    distant.append(multiplier)
        assert np.mean(adjacent) > 2 * np.mean(distant)

    def test_device_scale_build_adds_few_tracked_objects(self):
        """A 255-qubit line's 64,262 crosstalk pairs live in two arrays, not
        in one object each (the per-pair form added 46,676-65,602)."""
        Backend(synthetic_device(5, edges=topologies.line(5), name="line_5"))  # imports
        gc.collect()
        before = len(gc.get_objects())
        backend = Backend(synthetic_device(255, edges=topologies.line(255), name="line_255"))
        gc.collect()
        added = len(gc.get_objects()) - before
        assert backend.num_qubits == 255
        assert added < 5000

    def test_table3_style_summaries(self):
        calibration = generate_calibration(get_device("ibmq_toronto"), cycle=0)
        assert 0.005 < calibration.average_cnot_error() < 0.05
        assert 0.01 < calibration.average_measurement_error() < 0.12
        assert 50 < calibration.average_t1_us() < 200
        assert calibration.worst_cnot_duration_ratio() >= 1.0

    @given(cycle=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_every_cycle_produces_complete_calibration(self, cycle):
        device = get_device("ibmq_rome")
        calibration = generate_calibration(device, cycle=cycle)
        assert set(calibration.qubits) == set(range(device.num_qubits))
        assert len(calibration.links) == len(device.edges)


class TestBackend:
    def test_from_name_and_repr(self):
        backend = Backend.from_name("ibmq_rome", cycle=2)
        assert backend.name == "ibmq_rome"
        assert backend.calibration.cycle == 2
        assert "ibmq_rome" in repr(backend)

    def test_calibration_device_mismatch_rejected(self):
        calibration = generate_calibration(get_device("ibmq_rome"))
        with pytest.raises(ValueError):
            Backend(get_device("ibmq_london"), calibration)

    def test_with_calibration_cycle(self, rome_backend):
        other = rome_backend.with_calibration_cycle(5)
        assert other.calibration.cycle == 5
        assert other.name == rome_backend.name

    def test_gate_durations(self, rome_backend):
        assert rome_backend.gate_duration(Gate("rz", (0,), (0.3,))) == 0.0
        assert rome_backend.gate_duration(Gate("sx", (0,))) == pytest.approx(35.0)
        assert rome_backend.gate_duration(Gate("x", (0,))) == pytest.approx(35.0)
        assert rome_backend.gate_duration(Gate("measure", (0,))) > 1000
        cnot = rome_backend.gate_duration(Gate("cx", (0, 1)))
        assert 200 < cnot < 1200
        swap = rome_backend.gate_duration(Gate("swap", (0, 1)))
        assert swap == pytest.approx(3 * cnot)

    def test_explicit_duration_wins(self, rome_backend):
        assert rome_backend.gate_duration(Gate("x", (0,), duration=99.0)) == 99.0

    def test_cnot_duration_varies_per_link(self, toronto_backend):
        durations = {
            edge: toronto_backend.gate_duration(Gate("cx", edge))
            for edge in toronto_backend.edges
        }
        assert max(durations.values()) > min(durations.values())

    def test_schedule_returns_gst(self, rome_backend):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        gst = rome_backend.schedule(circuit)
        assert gst.total_duration > 0
        assert set(gst.active_qubits()) == {0, 1, 2}


class TestHeavyHexFamily:
    """The parametric heavy-hex generator and its registered device specs."""

    def test_distance_2_reproduces_toronto_exactly(self):
        generated = sorted(tuple(sorted(e)) for e in topologies.heavy_hex(2))
        published = sorted(
            tuple(sorted(e)) for e in topologies.COUPLING_MAPS["ibmq_toronto"]
        )
        assert generated == published

    @pytest.mark.parametrize(
        "distance,num_qubits,num_edges",
        [(2, 27, 28), (3, 65, 72), (4, 127, 144)],
    )
    def test_published_lattice_counts(self, distance, num_qubits, num_edges):
        edges = topologies.heavy_hex(distance)
        assert topologies.heavy_hex_num_qubits(distance) == num_qubits
        graph = networkx_graph(edges, num_qubits)
        assert graph.number_of_nodes() == num_qubits
        assert graph.number_of_edges() == num_edges

    @pytest.mark.parametrize("distance", [2, 3, 4, 5])
    def test_degree_bound_and_connectivity(self, distance):
        edges = topologies.heavy_hex(distance)
        n = topologies.heavy_hex_num_qubits(distance)
        graph = networkx_graph(edges, n)
        assert nx.is_connected(graph)
        assert max(degree for _, degree in graph.degree) <= 3

    def test_invalid_distance_rejected(self):
        with pytest.raises(ValueError):
            topologies.heavy_hex(1)
        with pytest.raises(ValueError):
            topologies.heavy_hex_num_qubits(0)

    def test_qubit_link_combinations_preserved_for_existing_devices(self):
        # Section 3.2 / 3.3 counts must survive the generator refactor, and a
        # generated Falcon lattice reproduces them exactly.
        assert len(get_device("ibmq_guadalupe").qubit_link_combinations()) == 224
        assert len(get_device("ibmq_toronto").qubit_link_combinations()) == 700
        generated = topologies.qubit_link_combinations(topologies.heavy_hex(2), 27)
        assert len(generated) == 700

    def test_family_devices_registered(self):
        brooklyn = get_device("ibm_brooklyn")
        washington = get_device("ibm_washington")
        assert brooklyn.num_qubits == 65
        assert washington.num_qubits == 127
        assert sorted(tuple(sorted(e)) for e in washington.edges) == sorted(
            tuple(sorted(e)) for e in topologies.heavy_hex(4)
        )
        assert "ibm_brooklyn" in list_devices()
        assert "ibm_washington" in list_devices()

    def test_parametric_heavy_hex_device_axis(self):
        from repro.hardware import heavy_hex_device

        device = get_device("heavy_hex:5")
        assert device.num_qubits == topologies.heavy_hex_num_qubits(5) == 209
        assert device.name == "heavy_hex:5"
        assert device is heavy_hex_device(5)  # memoized
        # Toronto-derived error profile isolates the topology axis.
        assert device.cnot_error == get_device("ibmq_toronto").cnot_error
        with pytest.raises(KeyError):
            get_device("heavy_hex:1")
        with pytest.raises(KeyError):
            get_device("heavy_hex:five")

    def test_heavy_hex_backend_calibration_is_complete(self):
        backend = Backend.from_name("ibm_brooklyn")
        assert set(backend.calibration.qubits) == set(range(65))
        assert len(backend.calibration.links) == 72

    def test_heavy_hex_template_variants_are_distinct(self):
        from repro.hardware import heavy_hex_device

        toronto = heavy_hex_device(3)
        guadalupe = heavy_hex_device(3, template="ibmq_guadalupe")
        assert toronto is not guadalupe
        assert guadalupe.cnot_error == get_device("ibmq_guadalupe").cnot_error
        assert guadalupe.name == "heavy_hex:3@ibmq_guadalupe"
        assert get_device(guadalupe.name) is guadalupe  # round-trips


class TestDistanceCache:
    """One graph traversal per topology, shared by every consumer."""

    def test_cold_then_warm_single_build(self):
        topologies.clear_distance_cache()
        backend = Backend.from_name("ibmq_toronto")
        first = backend.distance_matrix()
        assert topologies.DISTANCE_CACHE_STATS["builds"] == 1
        assert backend.distance_matrix() is first
        # Distances, rows, adjacency, DeviceSpec.distance and a second
        # backend over the same device all reuse the one traversal.
        backend.distance_rows()
        backend.adjacency_sets()
        assert backend.device.distance(0, 26) == int(first[0, 26])
        other = Backend.from_name("ibmq_toronto", cycle=3)
        assert other.distance_matrix() is first
        assert topologies.DISTANCE_CACHE_STATS["builds"] == 1
        assert topologies.DISTANCE_CACHE_STATS["hits"] >= 2

    def test_distance_array_is_read_only_and_symmetric(self):
        array = topologies.distance_array(topologies.heavy_hex(3), 65)
        assert (array == array.T).all()
        assert array[0, 0] == 0
        with pytest.raises(ValueError):
            array[0, 1] = 99

    def test_matches_networkx_reference(self):
        edges = topologies.heavy_hex(3)
        n = 65
        array = topologies.build_distance_array(edges, n)
        lengths = dict(nx.all_pairs_shortest_path_length(networkx_graph(edges, n)))
        for a in range(0, n, 7):
            for b in range(0, n, 5):
                assert array[a, b] == lengths[a][b]


class TestDisconnectedTopologies:
    """Explicit sentinel instead of silently dropped unreachable pairs."""

    def test_distance_matrix_uses_sentinel(self):
        distances = topologies.distance_matrix([(0, 1), (2, 3)], 4)
        assert distances[(0, 1)] == 1
        assert distances[(0, 2)] == topologies.UNREACHABLE
        assert distances[(0, 2)] == math.inf  # never a bare KeyError
        assert len(distances) == 16  # every pair is present

    def test_device_distance_raises_descriptive_error(self):
        device = synthetic_device(4, edges=[(0, 1), (2, 3)], name="split")
        assert device.distance(2, 3) == 1
        with pytest.raises(ValueError, match="not connected"):
            device.distance(0, 3)


class TestSyntheticDeviceValidation:
    """synthetic_device must reject inconsistent edge lists."""

    def test_out_of_range_endpoints_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            synthetic_device(4, edges=[(0, 7)])
        with pytest.raises(ValueError, match="outside"):
            synthetic_device(4, edges=[(0, 1), (3, 4)], name="off_by_one")

    def test_figure3b_all_to_all_path_still_works(self):
        device = synthetic_device(6, template="ibmq_toronto")
        assert len(device.edges) == 15
        assert device.distance(0, 5) == 1
        backend = Backend(device)
        assert backend.num_qubits == 6

"""Tests for the Gate Sequence Table: scheduling, idle windows, concurrency."""

import pytest

from repro.circuits import Gate, QuantumCircuit
from repro.core import GateSequenceTable
from repro.simulators import StatevectorSimulator
import numpy as np

from repro.testing import random_single_qubit_circuit


def simple_durations(gate: Gate) -> float:
    if gate.name in ("rz", "barrier"):
        return 0.0
    if gate.is_two_qubit:
        return 400.0
    if gate.is_measurement:
        return 1000.0
    return 50.0


class TestScheduling:
    def test_asap_packs_gates_early(self):
        circuit = QuantumCircuit(2).h(0).h(1).cx(0, 1)
        gst = GateSequenceTable(circuit, simple_durations, method="asap")
        starts = [s.start for s in gst.scheduled_gates]
        assert starts == [0.0, 0.0, 50.0]

    def test_alap_pushes_gates_late(self):
        # q1's H can wait until just before the CNOT under ALAP.
        circuit = QuantumCircuit(2).h(1).h(0).h(0).h(0).cx(0, 1)
        gst = GateSequenceTable(circuit, simple_durations, method="alap")
        h1 = [s for s in gst.scheduled_gates if s.gate.qubits == (1,)][0]
        assert h1.start == pytest.approx(100.0)

    def test_total_duration_matches_critical_path(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
        gst = GateSequenceTable(circuit, simple_durations)
        assert gst.total_duration == pytest.approx(50 + 400 + 1000)

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            GateSequenceTable(QuantumCircuit(1).h(0), simple_durations, method="foo")

    def test_zero_duration_gates_preserve_program_order(self):
        # Regression test: virtual RZ gates share a start time with the next
        # physical gate; ties must not reorder same-qubit dependencies.
        circuit = QuantumCircuit(2).rz(0.3, 1).cx(0, 1).rz(0.7, 1)
        gst = GateSequenceTable(circuit, simple_durations, method="alap")
        names = [s.gate.name for s in gst.scheduled_gates]
        assert names == ["rz", "cx", "rz"]

    def test_schedule_order_preserves_semantics(self, rng):
        circuit = random_single_qubit_circuit(4, 40, rng)
        gst = GateSequenceTable(circuit, simple_durations, method="alap")
        reordered = QuantumCircuit(4)
        for scheduled in gst.scheduled_gates:
            reordered.append(scheduled.gate)
        simulator = StatevectorSimulator()
        assert np.allclose(
            simulator.probabilities(reordered), simulator.probabilities(circuit), atol=1e-9
        )

    def test_barriers_synchronize(self):
        circuit = QuantumCircuit(2).h(0).barrier().h(1)
        gst = GateSequenceTable(circuit, simple_durations, method="asap")
        h1 = [s for s in gst.scheduled_gates if s.gate.qubits == (1,)][0]
        assert h1.start == pytest.approx(50.0)

    def test_explicit_delay_duration_respected(self):
        circuit = QuantumCircuit(1).x(0).delay(500.0, 0).x(0)
        gst = GateSequenceTable(circuit, simple_durations)
        assert gst.total_duration == pytest.approx(600.0)


class TestIdleWindows:
    def make_serial_circuit(self):
        # q0 acts, then idles while q1/q2 run two serial CNOTs, then acts again.
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.barrier()
        circuit.cx(1, 2)
        circuit.cx(1, 2)
        circuit.barrier()
        circuit.x(0)
        circuit.measure_all()
        return circuit

    def test_idle_window_duration(self):
        gst = GateSequenceTable(self.make_serial_circuit(), simple_durations)
        windows = gst.idle_windows(0)
        assert len(windows) == 1
        assert windows[0].duration == pytest.approx(800.0)

    def test_leading_idle_not_counted(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        circuit.h(1)
        gst = GateSequenceTable(circuit, simple_durations, method="asap")
        # q1 is busy from its first gate; no window should start at t=0 for a
        # qubit whose first activity is late.
        assert all(w.start > 0 or w.qubit != 1 for w in gst.idle_windows())

    def test_min_duration_filter(self):
        gst = GateSequenceTable(self.make_serial_circuit(), simple_durations)
        assert gst.idle_windows(0, min_duration=900.0) == []
        assert len(gst.idle_windows(0, min_duration=700.0)) == 1

    def test_idle_fraction_between_zero_and_one(self):
        gst = GateSequenceTable(self.make_serial_circuit(), simple_durations)
        for qubit in gst.active_qubits():
            assert 0.0 <= gst.idle_fraction(qubit) <= 1.0
        assert gst.idle_fraction(0) > gst.idle_fraction(1)

    def test_busy_qubit_has_almost_no_idle(self):
        # q1 executes back-to-back CNOTs; only small scheduling slack (from the
        # single-qubit gates on q0's path) may appear before its measurement.
        gst = GateSequenceTable(self.make_serial_circuit(), simple_durations)
        assert gst.total_idle_time(1) < 150.0
        assert gst.total_idle_time(0) > 5 * max(gst.total_idle_time(1), 1.0)

    def test_total_and_average_idle_time(self):
        gst = GateSequenceTable(self.make_serial_circuit(), simple_durations)
        assert gst.total_idle_time(0) == pytest.approx(800.0)
        assert 800.0 / 3 <= gst.average_idle_time() <= gst.total_idle_time(0)

    def test_active_qubits_excludes_untouched(self):
        circuit = QuantumCircuit(10).h(2).cx(2, 7)
        gst = GateSequenceTable(circuit, simple_durations)
        assert gst.active_qubits() == [2, 7]


def link_overlaps(gst, start, end, exclude_qubit=None):
    """``concurrent_cnots`` as ``(link, overlap)`` pairs."""
    links, overlaps = gst.concurrent_cnots(start, end, exclude_qubit=exclude_qubit)
    return [(gst.cnot_links[i], float(o)) for i, o in zip(links, overlaps)]


class TestConcurrency:
    def test_concurrent_cnots_reports_overlap(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.barrier()
        circuit.cx(1, 2)
        circuit.barrier()
        circuit.x(0)
        gst = GateSequenceTable(circuit, simple_durations)
        window = gst.idle_windows(0)[0]
        concurrent = link_overlaps(gst, window.start, window.end, exclude_qubit=0)
        assert concurrent == [((1, 2), pytest.approx(400.0))]

    def test_exclude_qubit_filters_own_gates(self):
        circuit = QuantumCircuit(2).cx(0, 1)
        gst = GateSequenceTable(circuit, simple_durations)
        assert link_overlaps(gst, 0, 400, exclude_qubit=0) == []
        assert len(link_overlaps(gst, 0, 400)) == 1

    def test_link_is_canonical(self):
        circuit = QuantumCircuit(2).cx(1, 0)
        gst = GateSequenceTable(circuit, simple_durations)
        assert gst.scheduled_gates[0].link == (0, 1)

    def test_gates_on_qubit(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).h(1)
        gst = GateSequenceTable(circuit, simple_durations)
        assert len(gst.gates_on_qubit(0)) == 2
        assert len(gst.gates_on_qubit(1)) == 2


class TestRendering:
    def test_render_contains_layers_and_qubits(self):
        circuit = QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2)
        gst = GateSequenceTable(circuit, simple_durations)
        text = gst.render()
        assert "Q0" in text and "Q2" in text
        assert "CX" in text
        assert "Idle" in text

    def test_layers_group_by_start_time(self):
        circuit = QuantumCircuit(2).h(0).h(1).cx(0, 1)
        gst = GateSequenceTable(circuit, simple_durations, method="asap")
        layers = gst.layers()
        assert len(layers) == 2
        assert len(layers[0][1]) == 2

"""Differential tests of the device-scale compile and evaluate steps.

SABRE scores each candidate SWAP by a delta from one base cost, CNOT
concurrency reaches the idle-noise fold as arrays, the Clifford engines
build window variants in one array pass, and a program resolves gate noise
once per distinct gate.  The ``oracle.compile`` references re-sum every pair
per candidate, accumulate concurrency in a dict of ``(link, overlap)``
tuples and fold it with one ``crosstalk_on`` lookup per tuple, twirl and
mask one window op at a time, and resolve noise per scheduled gate.  Every
rewrite claims the same bits, so every comparison here is exact: equal
SWAPs, equal routed circuits, equal bytes, float hex for the rest.
"""

import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle.compile import (
    assemble_window_events,
    choose_swap,
    concurrent_cnots,
    gate_template,
    variant_mask_events,
    window_effect,
)

from repro.circuits import Gate, QuantumCircuit
from repro.circuits.gates import gate_matrix
from repro.dd import XY4Sequence
from repro.hardware import Backend, topologies
from repro.hardware.devices import synthetic_device
from repro.hardware.program import CompiledNoisyProgram, ResolvedOp
from repro.simulators import channels
from repro.simulators.engines import _window_variant_events
from repro.store.keys import circuit_fingerprint
from repro.transpiler import Layout, sabre_route
from repro.transpiler import routing
from repro.transpiler.routing import _choose_swap, _Mapping


def _two_lines(width: int):
    """Two disjoint lines of ``width`` qubits: unreachable pairs score ``far``."""
    return topologies.line(width) + [(a + width, b + width) for a, b in topologies.line(width)]


DEVICES = {
    "line_9": (9, topologies.line(9)),
    "heavy_hex_27": (27, topologies.heavy_hex(2)),
    "two_lines_12": (12, _two_lines(6)),
}


@functools.lru_cache(maxsize=None)
def _backend(name: str) -> Backend:
    num_qubits, edges = DEVICES[name]
    return Backend(synthetic_device(num_qubits, edges=edges, name=name))


@st.composite
def heuristic_sets(draw):
    """A device, a placement, and random front-layer and look-ahead gates."""
    name = draw(st.sampled_from(sorted(DEVICES)))
    backend = _backend(name)
    n = backend.num_qubits
    num_logical = draw(st.integers(2, n))
    physical = draw(st.permutations(range(n)))[:num_logical]
    pair = st.lists(st.integers(0, num_logical - 1), min_size=2, max_size=2, unique=True)
    front = draw(st.lists(pair, min_size=1, max_size=6))
    extended = draw(st.lists(pair, max_size=14))
    weight = draw(st.sampled_from([0.5, 0.25, 1.0]))
    return (
        backend,
        _Mapping(Layout(tuple(physical)), n),
        [Gate("cx", tuple(q)) for q in front],
        [Gate("cx", tuple(q)) for q in extended],
        weight,
    )


class TestDeltaScoredSwap:
    @given(heuristic_sets())
    @settings(max_examples=300, deadline=None)
    def test_delta_scorer_picks_the_full_resum_swap(self, case):
        backend, mapping, front, extended, weight = case
        args = (
            front,
            extended,
            mapping,
            backend.adjacency_sets(),
            backend.distance_rows(),
            weight,
        )
        assert _choose_swap(*args) == choose_swap(*args)

    @given(
        device=st.sampled_from(["line_9", "heavy_hex_27"]),
        gates=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=40,
        ),
        lookahead=st.sampled_from([0, 3, 12]),
    )
    @settings(max_examples=60, deadline=None)
    def test_routed_circuit_equals_full_resum_route(self, device, gates, lookahead):
        backend = _backend(device)
        circuit = QuantumCircuit(9)
        for a, b in gates:
            circuit.h(a).cx(a, b)
        circuit.measure_all()
        layout = Layout(tuple(range(9)))
        routed = sabre_route(circuit, backend, layout, lookahead=lookahead)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(routing, "_choose_swap", choose_swap)
            reference = sabre_route(circuit, backend, layout, lookahead=lookahead)
        assert routed.num_swaps == reference.num_swaps
        assert routed.final_layout == reference.final_layout
        assert circuit_fingerprint(routed.circuit) == circuit_fingerprint(reference.circuit)


def _hex(effect):
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(effect)
    )


def _pairs(gst, concurrency):
    links, overlaps = concurrency
    return [(gst.cnot_links[i], float(o).hex()) for i, o in zip(links, overlaps)]


def _reference_pairs(concurrent):
    return [(link, overlap.hex()) for link, overlap in concurrent]


@st.composite
def schedules(draw):
    """A random circuit on a 9-qubit line: CNOTs repeat links often."""
    backend = _backend("line_9")
    links = topologies.line(9)
    circuit = QuantumCircuit(9)
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["cx", "cx", "cx", "sx", "x", "barrier"]))
        if kind == "cx":
            a, b = draw(st.sampled_from(links))
            circuit.cx(*((a, b) if draw(st.booleans()) else (b, a)))
        elif kind == "barrier":
            circuit.barrier()
        else:
            getattr(circuit, kind)(draw(st.integers(0, 8)))
    method = draw(st.sampled_from(["alap", "asap"]))
    return backend, circuit, backend.schedule(circuit, method=method)


class TestArrayConcurrency:
    @given(schedules())
    @settings(max_examples=80, deadline=None)
    def test_program_windows_match_the_tuple_fold(self, case):
        backend, circuit, gst = case
        idle_noise = backend.idle_noise
        program = CompiledNoisyProgram(backend, circuit, gst)
        xy4 = XY4Sequence()
        for widx, window in enumerate(program.windows):
            reference = concurrent_cnots(gst, window.start, window.end, window.qubit)
            assert _pairs(gst, program.concurrent[widx]) == _reference_pairs(reference)
            trains = [None, xy4.build_train(window.qubit, window.start, window.duration)]
            for train in trains:
                effect = idle_noise.window_effect(
                    window.qubit, window.duration, program.window_crosstalk(widx), train
                )
                expected = window_effect(
                    idle_noise, window.qubit, window.duration, reference, train
                )
                assert _hex(effect) == _hex(expected)

    @given(case=schedules(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_intervals_touching_cnots_match_the_tuple_fold(self, case, data):
        backend, circuit, gst = case
        idle_noise = backend.idle_noise
        calibration = idle_noise.calibration
        cnots = [s for s in gst.scheduled_gates if s.is_cnot]
        intervals = [(0.0, gst.total_duration)]
        for s in cnots:
            width = data.draw(st.floats(1.0, 2000.0))
            # Windows that end where a CNOT starts, or start where one ends,
            # touch it with zero overlap.
            intervals += [(s.start - width, s.start), (s.end, s.end + width)]
            intervals.append((s.start + width / 4, s.end + width))
        for start, end in intervals:
            qubit = data.draw(st.integers(0, 8))
            exclude = data.draw(st.sampled_from([None, qubit]))
            reference = concurrent_cnots(gst, start, end, exclude)
            links, overlaps = gst.concurrent_cnots(start, end, exclude_qubit=exclude)
            assert _pairs(gst, (links, overlaps)) == _reference_pairs(reference)
            excess, zz_rates = calibration.crosstalk_rows(qubit, gst.cnot_links)
            duration = max(0.0, end - start)
            effect = idle_noise.window_effect(
                qubit, duration, (excess[links], zz_rates[links], overlaps)
            )
            expected = window_effect(idle_noise, qubit, duration, reference)
            assert _hex(effect) == _hex(expected)

    def test_repeated_link_sums_into_one_entry(self):
        circuit = QuantumCircuit(3)
        circuit.x(0)
        circuit.barrier()
        circuit.cx(1, 2).cx(2, 1).cx(1, 2)
        circuit.barrier()
        circuit.x(0)
        gst = _backend("line_9").schedule(circuit)
        window = gst.idle_windows(0)[0]
        links, overlaps = gst.concurrent_cnots(window.start, window.end, exclude_qubit=0)
        reference = concurrent_cnots(gst, window.start, window.end, 0)
        assert gst.cnot_links == ((1, 2),)
        assert links.tolist() == [0]
        assert _pairs(gst, (links, overlaps)) == _reference_pairs(reference)

    def test_schedule_without_cnots_has_no_links(self):
        gst = _backend("line_9").schedule(QuantumCircuit(2).x(0).x(1))
        links, overlaps = gst.concurrent_cnots(0.0, 1000.0)
        assert gst.cnot_links == ()
        assert len(links) == len(overlaps) == 0


def _bits(array) -> list:
    """Float hex of every entry, padding included."""
    return [float(value).hex() for value in np.asarray(array, dtype=float).ravel()]


@st.composite
def one_qubit_channels(draw):
    """A one-qubit Kraus list of 1-4 operators, from the idle-noise families
    (two of which drop X and Y) or a random isometry."""
    kind = draw(st.sampled_from(["phase", "rz", "rx", "t1", "depol", "random"]))
    if kind == "phase":
        return channels.phase_damping(draw(st.floats(0.0, 1.0)))
    if kind == "rz":
        return [gate_matrix("rz", (draw(st.floats(-4.0, 4.0)),))]
    if kind == "rx":
        return [gate_matrix("rx", (draw(st.floats(-4.0, 4.0)),))]
    if kind == "t1":
        return channels.amplitude_damping(draw(st.floats(0.0, 1.0)))
    if kind == "depol":
        return channels.depolarizing(draw(st.floats(0.0, 1.0)))
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    isometry, _ = np.linalg.qr(
        rng.standard_normal((2 * m, 2)) + 1j * rng.standard_normal((2 * m, 2))
    )
    return [isometry[2 * i : 2 * i + 2] for i in range(m)]


class _WindowStub:
    """The slice of a compiled program the window builder reads."""

    def __init__(self, num_active, qubits, ops):
        self.num_active = num_active
        self.index_of = {q: q for q in range(num_active)}
        self.windows = [SimpleNamespace(qubit=q) for q in qubits]
        self._ops = ops

    def window_ops(self, widx, variant):
        return self._ops[widx, variant]


@st.composite
def window_cases(draw):
    """Windows on random qubits with random suffix rows (zero, equal X and
    Z rows, or random words), ops per (window, variant) and a pair list
    mixing ``None`` and two protocols."""
    words = draw(st.sampled_from([1, 4, 16]))
    n = 64 * words - draw(st.integers(0, 63))
    num_windows = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    qubits = [draw(st.integers(0, n - 1)) for _ in range(num_windows)]
    suffix_maps = {}
    for widx, q in enumerate(qubits):
        rows = []
        for _ in range(2):
            shape = draw(st.sampled_from(["zero", "random", "random"]))
            row = np.zeros(words, dtype=np.uint64)
            if shape == "random":
                row = rng.integers(0, 2 ** 63, size=words, dtype=np.uint64)
            rows.append(row)
        if draw(st.booleans()):
            rows[1] = rows[0].copy()  # Y's mask X^Z vanishes
        suffix_maps[widx] = ({q: rows[0]}, {q: rows[1]})
    variants = [None, "xy4", "ibmq_dd"]
    ops = {}
    for widx, q in enumerate(qubits):
        for variant in variants:
            kraus_lists = draw(st.lists(one_qubit_channels(), max_size=4))
            ops[widx, variant] = [ResolvedOp((q,), kraus) for kraus in kraus_lists]
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, num_windows - 1), st.sampled_from(variants)),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    return _WindowStub(n, qubits, ops), suffix_maps, pairs


class TestBatchedWindowVariants:
    @given(window_cases())
    @settings(max_examples=300, deadline=None)
    def test_builder_matches_the_per_op_path(self, case):
        program, suffix_maps, pairs = case
        built = _window_variant_events(program, suffix_maps, pairs)
        reference = assemble_window_events(
            program, [variant_mask_events(program, suffix_maps, *pair) for pair in pairs]
        )
        assert built.bounds.tolist() == reference.bounds.tolist()
        assert built.counts.tolist() == reference.counts.tolist()
        assert _bits(built.probs) == _bits(reference.probs)
        assert _bits(built.cum) == _bits(reference.cum)
        assert np.array_equal(built.masks, reference.masks)
        assert _bits(built.flip_free) == _bits(reference.flip_free)

    def test_pure_phase_channels_keep_two_branches(self):
        """Phase damping and rz have no X or Y component: I and Z only."""
        ops = {
            (0, None): [
                ResolvedOp((3,), channels.phase_damping(0.2)),
                ResolvedOp((3,), [gate_matrix("rz", (0.3,))]),
            ]
        }
        x_row, z_row = np.array([8], dtype=np.uint64), np.array([5], dtype=np.uint64)
        built = _window_variant_events(
            _WindowStub(5, [3], ops), {0: ({3: x_row}, {3: z_row})}, [(0, None)]
        )
        assert built.counts.tolist() == [2, 2]
        assert built.masks[:, :2, 0].tolist() == [[0, 5], [0, 5]]
        assert _bits(built.cum[:, 2:]) == [(2.0).hex()] * 4


class TestGateNoiseMemo:
    @given(schedules())
    @settings(max_examples=40, deadline=None)
    def test_template_equals_per_gate_resolution(self, case):
        backend, circuit, gst = case
        program = CompiledNoisyProgram(backend, circuit, gst)
        assert _described(program.template) == gate_template(program)

    def test_gate_noise_runs_once_per_distinct_gate(self, monkeypatch):
        backend = _backend("line_9")
        circuit = QuantumCircuit(3)
        for _ in range(6):
            circuit.cx(0, 1).sx(2).cx(1, 2)
        gst = backend.schedule(circuit)
        calls = []
        original = backend.gate_noise.gate_noise
        monkeypatch.setattr(
            backend.gate_noise, "gate_noise", lambda gate: calls.append(gate) or original(gate)
        )
        program = CompiledNoisyProgram(backend, circuit, gst)
        assert sorted({(g.name, g.qubits) for g in calls}) == [
            ("cx", (0, 1)), ("cx", (1, 2)), ("sx", (2,))
        ]
        assert len(calls) == 3
        assert _described(program.template) == gate_template(program)


def _described(template) -> list:
    """The template in :func:`oracle.compile.gate_template`'s terms."""
    described = []
    for kind, payload in template:
        if kind == "window":
            described.append(("window", payload))
        elif payload.gate is not None:
            gate = payload.gate
            described.append(("gate", gate.name, payload.positions, gate.params))
        else:
            kraus = tuple(np.asarray(k, dtype=complex).tobytes() for k in payload.kraus)
            described.append(("noise", payload.noise.kind, payload.positions, kraus))
    return described

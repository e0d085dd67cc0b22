"""Differential tests of the device-scale compile and evaluate steps.

SABRE keeps each ready list's SWAP scores across its rounds (each
candidate a delta from one base cost), CNOT concurrency reaches the
idle-noise fold as arrays, the Clifford engines build the shared gate-noise
masks and the window variants in array passes, and a program resolves gate
noise once per distinct gate.  The ``oracle.compile`` references route with
SABRE rebuilding every round and re-summing every pair per candidate,
accumulate concurrency in a dict of ``(link, overlap)`` tuples and fold it
with one read of the crosstalk arrays per tuple, twirl and mask one window op or
gate-noise event at a time, and resolve noise per scheduled gate.  Every
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
    noise_mask_table,
    variant_mask_events,
    window_effect,
)
from oracle.compile import sabre_route as reference_route

from repro.circuits import Gate, QuantumCircuit
from repro.circuits.gates import gate_matrix
from repro.dd import XY4Sequence
from repro.hardware import Backend, topologies
from repro.hardware.devices import synthetic_device
from repro.hardware.program import CompiledNoisyProgram, ResolvedOp
from repro.simulators import channels, symplectic
from repro.simulators.engines import _build_mask_table, _window_variant_events
from repro.store.keys import circuit_fingerprint
from repro.transpiler import Layout, sabre_route
from repro.transpiler import routing
from repro.transpiler.routing import _Mapping, _SwapScorer


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


def _scorer(backend, mapping, front, extended, weight):
    return _SwapScorer(
        front, extended, mapping.l2p, backend.adjacency_sets(), backend.distance_rows(), weight
    )


def _two_line_device(width: int) -> Backend:
    return Backend(
        synthetic_device(2 * width, edges=_two_lines(width), name=f"two_lines_{2 * width}")
    )


#: Devices of the long routing cases: a line, a heavy hex and two disjoint
#: lines (look-ahead pairs across them score ``far``).
ROUTING_DEVICES = {
    "line_40": lambda: Backend(synthetic_device(40, edges=topologies.line(40), name="line_40")),
    "heavy_hex_65": lambda: Backend(
        synthetic_device(65, edges=topologies.heavy_hex(3), name="heavy_hex_65")
    ),
    "two_lines_40": lambda: _two_line_device(20),
}


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
        assert _scorer(backend, mapping, front, extended, weight).choose() == choose_swap(*args)

    @given(case=heuristic_sets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_kept_scorer_follows_a_swap_chain(self, case, data):
        """A scorer kept across random SWAPs chooses what a fresh re-sum does."""
        backend, mapping, front, extended, weight = case
        scorer = _scorer(backend, mapping, front, extended, weight)
        edges = sorted(
            (a, b) for a, nbrs in enumerate(backend.adjacency_sets()) for b in nbrs if a < b
        )
        for _ in range(data.draw(st.integers(1, 25))):
            a, b = data.draw(st.sampled_from(edges))
            mapping.swap_physical(a, b)
            scorer.swap(a, b)
            assert scorer.choose() == choose_swap(
                front, extended, mapping, backend.adjacency_sets(), backend.distance_rows(), weight
            )

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
        _assert_same_route(circuit, backend, layout, lookahead)

    @pytest.mark.parametrize("lookahead", [0, 3, 12])
    @pytest.mark.parametrize("device", sorted(ROUTING_DEVICES))
    def test_long_same_front_stretches_equal_the_per_round_route(
        self, monkeypatch, device, lookahead
    ):
        """20-40 logical qubits, 100-300 CNOTs: most SWAP rounds keep their
        scorer.  On the two-line device the CNOTs stay inside one line, and
        in the second circuit one CNOT near the end crosses: until it reaches
        the front it scores ``far`` in the look-ahead, and then both routes
        must fail on it with the same physical qubits."""
        backend = ROUTING_DEVICES[device]()
        builds = []
        original = routing._SwapScorer.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(routing._SwapScorer, "__init__", counting)
        rng = np.random.default_rng(lookahead + 100 * len(device))
        for crossing in (False, True):
            num_logical = int(rng.integers(20, 41))
            physical = tuple(int(q) for q in rng.permutation(backend.num_qubits)[:num_logical])
            line_of = [p // 20 if device.startswith("two_lines") else 0 for p in physical]
            pairs = []
            while len(pairs) < int(rng.integers(100, 301)):
                a, b = (int(q) for q in rng.choice(num_logical, size=2, replace=False))
                if line_of[a] == line_of[b]:
                    pairs.append((a, b))
            if crossing and device.startswith("two_lines"):
                a = line_of.index(0)
                pairs.insert(9 * len(pairs) // 10, (a, line_of.index(1)))
            circuit = QuantumCircuit(num_logical)
            for a, b in pairs:
                circuit.sx(a).cx(a, b)
            circuit.measure_all()
            builds.clear()
            swaps = _assert_same_route(circuit, backend, Layout(physical), lookahead)
            assert builds
            if swaps is not None:
                assert swaps > 2 * len(builds)
            else:
                assert crossing and len(builds) > 50

    def test_one_swap_frees_two_gates_out_of_index_order(self):
        """SWAP (1, 2) frees both front gates; the one now at physical 1 has
        the larger index, so the two are emitted in index order, not SWAP
        endpoint order."""
        backend = _backend("line_9")
        circuit = QuantumCircuit(4).cx(1, 3).cx(0, 2)
        layout = Layout((0, 1, 2, 3))
        routed = sabre_route(circuit, backend, layout)
        assert [(g.name, g.qubits) for g in routed.circuit] == [
            ("swap", (1, 2)),
            ("cx", (2, 3)),
            ("cx", (0, 1)),
        ]
        assert _assert_same_route(circuit, backend, layout, lookahead=12) == 1

    def test_unroutable_front_fails_at_build(self):
        backend = _two_line_device(3)
        circuit = QuantumCircuit(2).cx(0, 1)
        with pytest.raises(RuntimeError, match="different components"):
            sabre_route(circuit, backend, Layout((0, 5)))


def _assert_same_route(circuit, backend, layout, lookahead):
    """Route with production and the per-round reference: equal circuits,
    layouts and SWAP counts, or the same error.  Returns the SWAP count."""
    try:
        routed = sabre_route(circuit, backend, layout, lookahead=lookahead)
    except RuntimeError as error:
        with pytest.raises(RuntimeError) as expected:
            reference_route(circuit, backend, layout, lookahead=lookahead)
        assert str(error) == str(expected.value)
        return None
    reference = reference_route(circuit, backend, layout, lookahead=lookahead)
    assert routed.num_swaps == reference.num_swaps
    assert routed.final_layout == reference.final_layout
    assert circuit_fingerprint(routed.circuit) == circuit_fingerprint(reference.circuit)
    return routed.num_swaps


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
        excess, zz_rates = calibration.crosstalk_columns(gst.cnot_links)
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
            duration = max(0.0, end - start)
            effect = idle_noise.window_effect(
                qubit, duration, (excess[qubit, links], zz_rates[qubit, links], overlaps)
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


@st.composite
def two_qubit_channels(draw):
    """A two-qubit Kraus list: depolarizing (all 16 branches, or only the
    identity at 0), a product of one-qubit channels (dropped branches when
    either factor drops some) or a random isometry."""
    kind = draw(st.sampled_from(["depol", "depol_zero", "product", "random"]))
    if kind == "depol":
        return channels.depolarizing_two_qubit(draw(st.floats(1e-4, 0.5)))
    if kind == "depol_zero":
        return channels.depolarizing_two_qubit(0.0)
    if kind == "product":
        first, second = draw(one_qubit_channels()), draw(one_qubit_channels())
        return [np.kron(a, b) for a in first for b in second]
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    isometry, _ = np.linalg.qr(
        rng.standard_normal((4 * m, 4)) + 1j * rng.standard_normal((4 * m, 4))
    )
    return [isometry[4 * i : 4 * i + 4] for i in range(m)]


class _TemplateStub:
    """The slice of a compiled program the mask-table builder reads."""

    def __init__(self, num_active, template, window_qubits):
        self.num_active = num_active
        self.template = template
        self.index_of = {q: q for q in range(num_active)}
        self.windows = [SimpleNamespace(qubit=q) for q in window_qubits]


_STUB_GATES = [("h", 1), ("s", 1), ("sdg", 1), ("sx", 1), ("x", 1), ("rz", 1),
               ("cx", 2), ("cz", 2), ("swap", 2)]


@st.composite
def mask_table_cases(draw):
    """A random Clifford template with shared 1q/2q noise ops (some ops
    reused, as compiled programs share them), window slots, and random
    start rows for the suffix walk: zero rows and equal X and Z rows make
    branches whose masks vanish, up to all 16 of a two-qubit event."""
    words = draw(st.sampled_from([1, 4, 16]))
    n = 64 * words - draw(st.integers(0, 63))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    hot = [int(q) for q in rng.choice(n, size=min(n, 6), replace=False)]
    template, window_qubits, pool = [], [], []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["gate", "gate", "noise1", "noise2", "reuse", "window"]))
        if kind == "gate":
            name, arity = draw(st.sampled_from([g for g in _STUB_GATES if g[1] <= len(hot)]))
            positions = tuple(draw(st.permutations(hot))[:arity])
            params = (draw(st.integers(-3, 3)) * np.pi / 2,) if name == "rz" else ()
            template.append(("op", ResolvedOp(positions, [], gate=Gate(name, positions, params))))
        elif kind == "window":
            template.append(("window", len(window_qubits)))
            window_qubits.append(draw(st.sampled_from(hot)))
        elif kind == "reuse" and pool:
            template.append(("op", draw(st.sampled_from(pool))))
        elif kind == "noise2" and len(hot) >= 2:
            positions = tuple(draw(st.permutations(hot))[:2])
            pool.append(ResolvedOp(positions, draw(two_qubit_channels())))
            template.append(("op", pool[-1]))
        else:
            pool.append(ResolvedOp((draw(st.sampled_from(hot)),), draw(one_qubit_channels())))
            template.append(("op", pool[-1]))
    def random_row():
        return int.from_bytes(rng.bytes(8 * words), "little") & ((1 << n) - 1)

    x_rows, z_rows = symplectic.identity_suffix(n)
    for q in hot:
        shape = draw(st.sampled_from(["identity", "zero", "equal", "random"]))
        if shape == "zero":
            x_rows[q] = z_rows[q] = 0
        elif shape == "equal":
            x_rows[q] = z_rows[q] = random_row()
        elif shape == "random":
            x_rows[q], z_rows[q] = random_row(), random_row()
    return _TemplateStub(n, template, window_qubits), (x_rows, z_rows)


def _assert_same_table(built, reference):
    assert sorted(built.groups) == sorted(reference.groups)
    for k, group in built.groups.items():
        expected = reference.groups[k]
        assert group.counts.tolist() == expected.counts.tolist()
        assert _bits(group.probs) == _bits(expected.probs)
        assert _bits(group.cum) == _bits(expected.cum)
        assert group.masks.shape == expected.masks.shape
        assert np.array_equal(group.masks, expected.masks)
    assert built.width.tolist() == reference.width.tolist()
    assert built.row.tolist() == reference.row.tolist()
    assert _bits(built.flip_free) == _bits(reference.flip_free)
    assert built.shared_flip_free.hex() == reference.shared_flip_free.hex()
    assert built.slot_windows.tolist() == reference.slot_windows.tolist()
    assert built.events_before.tolist() == reference.events_before.tolist()
    assert sorted(built.suffix_maps) == sorted(reference.suffix_maps)
    for widx, maps in built.suffix_maps.items():
        for rows, expected in zip(maps, reference.suffix_maps[widx]):
            assert {p: r.tolist() for p, r in rows.items()} == {
                p: r.tolist() for p, r in expected.items()
            }


def _tables(program, start_rows):
    """``_build_mask_table``'s and the per-event reference's tables, both
    walking from ``start_rows`` instead of the identity map."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            symplectic, "identity_suffix", lambda n: (list(start_rows[0]), list(start_rows[1]))
        )
        return _build_mask_table(program), noise_mask_table(program)


class TestArrayMaskTable:
    @given(mask_table_cases())
    @settings(max_examples=300, deadline=None)
    def test_array_build_matches_the_per_event_path(self, case):
        program, start_rows = case
        _assert_same_table(*_tables(program, start_rows))

    @pytest.mark.parametrize("zero_branches", [8, 16])
    def test_many_zero_branches_sum_like_the_per_event_path(self, zero_branches):
        """numpy's pairwise ``sum`` reorders from 8 terms on: a two-qubit
        event with 8 or 16 zero-mask branches of 16 (the counts a zero row
        pair on one qubit allows; an invertible map allows at most 4)."""
        n = 70
        x_rows, z_rows = symplectic.identity_suffix(n)
        x_rows[0] = z_rows[0] = 0          # qubit 0: every Pauli vanishes
        if zero_branches == 8:
            x_rows[1] = z_rows[1] = 1 << 65  # qubit 1: I and Y vanish
        else:
            x_rows[1] = z_rows[1] = 0
        op = ResolvedOp((0, 1), channels.depolarizing_two_qubit(0.37))
        program = _TemplateStub(n, [("op", op), ("window", 0), ("op", op)], [1])
        built, reference = _tables(program, (x_rows, z_rows))
        _assert_same_table(built, reference)
        zero = ~built.groups[2].masks.any(axis=2)
        assert zero.sum(axis=1).tolist() == [zero_branches] * 2

    def test_program_without_noise_events(self):
        gate = ResolvedOp((0, 1), [], gate=Gate("cx", (0, 1)))
        program = _TemplateStub(3, [("window", 0), ("op", gate), ("window", 1)], [0, 2])
        built, reference = _tables(program, symplectic.identity_suffix(3))
        _assert_same_table(built, reference)
        assert built.groups == {} and built.shared_flip_free == 1.0
        assert built.events_before.tolist() == [0, 0]


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

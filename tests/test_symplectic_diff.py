"""Differential testing + fuzzing of the bit-packed symplectic kernels.

The packed stabilizer stack (:class:`PackedCliffordTableau`, the kernels of
:mod:`repro.simulators.symplectic`) must be *bit-identical* to the boolean-row
reference of the ``oracle`` test package — same rows, same phases, same
measurement outcomes, same RNG consumption — because the experiment store
fingerprints results.  These tests lock that contract down:

* seeded random Clifford circuits at widths crossing the 64/128-bit word
  boundaries (including exactly 64 and 65 qubits) drive both tableaus
  through ``apply_gates`` and compare rows, phases, deterministic flags and
  measured outcomes;
* the qubit-major gate pass is compared with the boolean column rules one
  gate at a time, over every gate name it accepts (``rz``/``u1``/``p`` at
  all four quarter turns), together with the forced-pass support, and a
  ``reset`` mid-circuit must leave the same state;
* a 1000-tableau fuzz round-trips random boolean rows through
  ``pack_rows``/``unpack_rows`` and random packed words back through the
  boolean side;
* the mirror-target derivation (an end-propagated mask) is compared with
  the oracle's anticommutation count;
* ``StabilizerSimulator.probabilities`` (the points of the affine support)
  is compared with the oracle's recursive branch walk over 400 seeded random
  Clifford circuits: same keys, same key order, same float bits;
* the kernel primitives (popcount, XOR-gather, product phase) are checked
  against brute-force references.
"""

import numpy as np
import pytest

from oracle import CliffordTableau, enumerate_probabilities, installed
from repro.circuits import QuantumCircuit
from repro.simulators import symplectic
from repro.simulators.stabilizer import PackedCliffordTableau, StabilizerSimulator
from repro.simulators.statevector import SimulationError
from repro.workloads.mirror import mirror_target

#: Widths straddling the packing boundaries: single partial word, exactly one
#: word (64), one word plus one bit (65), two words (128), two words plus one
#: bit (129), and the 127-qubit device scale in between.
BOUNDARY_WIDTHS = [1, 2, 3, 31, 63, 64, 65, 96, 127, 128, 129]

_ONE_QUBIT = ["x", "y", "z", "h", "s", "sdg", "sx", "sxdg"]
_TWO_QUBIT = ["cx", "cz", "swap"]


def _random_ops(n: int, seed: int, gates: int = 160, names=None):
    """A seeded random word of ``(name, qubits, params)`` Clifford gates."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(gates):
        if n >= 2 and rng.random() < 0.4:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            name = _TWO_QUBIT[int(rng.integers(0, len(_TWO_QUBIT)))]
            ops.append((name, (a, b), ()))
        else:
            a = int(rng.integers(0, n))
            name = _ONE_QUBIT[int(rng.integers(0, len(_ONE_QUBIT)))]
            ops.append((name, (a,), ()))
    return ops


def _random_pair(n: int, seed: int, gates: int = 160):
    """Drive a pure and a packed tableau through one random Clifford word."""
    pure = CliffordTableau(n)
    packed = PackedCliffordTableau(n)
    ops = _random_ops(n, seed, gates)
    pure.apply_gates(ops)
    packed.apply_gates(ops)
    return pure, packed


def _assert_same_state(pure: CliffordTableau, packed: PackedCliffordTableau):
    n = pure.n
    np.testing.assert_array_equal(symplectic.unpack_rows(packed.xw, n), pure.x)
    np.testing.assert_array_equal(symplectic.unpack_rows(packed.zw, n), pure.z)
    np.testing.assert_array_equal(packed.r, pure.r)


class TestTableauDifferential:
    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_random_circuit_rows_and_phases(self, n):
        pure, packed = _random_pair(n, seed=1000 + n)
        _assert_same_state(pure, packed)

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_measurement_outcomes_and_collapse(self, n):
        """Same outcomes, same RNG consumption, same post-measurement state."""
        pure, packed = _random_pair(n, seed=2000 + n)
        rng_pure = np.random.default_rng(77)
        rng_packed = np.random.default_rng(77)
        for qubit in range(n):
            assert packed.is_deterministic(qubit) == pure.is_deterministic(qubit)
            out_pure = pure.measure(qubit, rng_pure)
            out_packed = packed.measure(qubit, rng_packed)
            assert out_packed == out_pure, (n, qubit)
        _assert_same_state(pure, packed)
        # Identical stream positions afterwards: the next draw must agree.
        assert rng_pure.random() == rng_packed.random()

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_forced_measurements(self, n):
        pure, packed = _random_pair(n, seed=3000 + n, gates=80)
        rng = np.random.default_rng(5)
        for qubit in range(min(n, 8)):
            if pure.is_deterministic(qubit):
                continue
            assert pure.measure(qubit, rng, forced=1) == packed.measure(
                qubit, rng, forced=1
            )
        _assert_same_state(pure, packed)

    def test_round_trip_converters(self):
        pure, packed = _random_pair(65, seed=9)
        rebuilt = CliffordTableau.from_packed(packed).to_packed()
        np.testing.assert_array_equal(rebuilt.xw, packed.xw)
        np.testing.assert_array_equal(rebuilt.zw, packed.zw)
        np.testing.assert_array_equal(rebuilt.r, packed.r)
        assert CliffordTableau.from_packed(packed).x.shape == pure.x.shape

    @pytest.mark.parametrize("n", [3, 6])
    def test_probabilities_match_between_kernel_modes(self, n):
        rng = np.random.default_rng(n)
        circuit = QuantumCircuit(n)
        for _ in range(30):
            kind = int(rng.integers(0, 4))
            if kind == 0:
                circuit.h(int(rng.integers(0, n)))
            elif kind == 1:
                circuit.s(int(rng.integers(0, n)))
            elif kind == 2:
                a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
                circuit.cx(a, b)
            else:
                circuit.x(int(rng.integers(0, n)))
        fast = StabilizerSimulator().probabilities(circuit)
        with installed() as calls:
            pure = StabilizerSimulator().probabilities(circuit)
        assert calls["tableau"] == 1
        assert fast == pure


#: Every gate name the gate pass accepts, rotations at all four quarter turns.
_EVERY_GATE = (
    [(name, 1, ()) for name in _ONE_QUBIT + ["id", "i"]]
    + [(name, 2, ()) for name in _TWO_QUBIT + ["cnot"]]
    + [
        (name, 1, (turns * np.pi / 2,))
        for name in ("rz", "u1", "p")
        for turns in (0, 1, 2, 3, -1, 5)
    ]
)


def _every_gate_ops(n: int, seed: int, rounds: int):
    """``rounds`` shuffled passes over :data:`_EVERY_GATE` on random qubits
    (two-qubit gates only when ``n >= 2``)."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(rounds):
        for index in rng.permutation(len(_EVERY_GATE)):
            name, arity, params = _EVERY_GATE[index]
            if arity > n:
                continue
            qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
            ops.append((name, qubits, params))
    return ops


class TestQubitMajorGatePass:
    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_every_gate_matches_the_column_rules(self, n):
        """One gate per ``apply_gates`` call: equal rows and phases after each."""
        pure, packed = _random_pair(n, seed=5000 + n, gates=40)
        ops = _every_gate_ops(n, seed=6000 + n, rounds=3)
        for op in ops:
            pure.apply_gates([op])
            packed.apply_gates([op])
            _assert_same_state(pure, packed)

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_one_pass_equals_the_column_rules(self, n):
        """A whole word in one pass: equal state and equal forced-pass support."""
        ops = _every_gate_ops(n, seed=7000 + n, rounds=4)
        pure = CliffordTableau(n)
        packed = PackedCliffordTableau(n)
        pure.apply_gates(ops)
        packed.apply_gates(ops)
        _assert_same_state(pure, packed)
        base, basis = StabilizerSimulator().support_ops(n, ops)
        with installed() as calls:
            pure_base, pure_basis = StabilizerSimulator().support_ops(n, ops)
        assert calls["tableau"] == 1
        np.testing.assert_array_equal(base, pure_base)
        np.testing.assert_array_equal(basis, pure_basis)

    @pytest.mark.parametrize("n", [1, 3, 64, 65])
    def test_reset_mid_pass(self, n):
        """``reset`` measures mid-pass: same outcomes, state and RNG position."""
        ops = _every_gate_ops(n, seed=8000 + n, rounds=1)
        ops += [("h", (0,), ()), ("reset", (0,), ())]
        ops += _every_gate_ops(n, seed=8100 + n, rounds=1) + [("reset", (n - 1,), ())]
        pure = CliffordTableau(n)
        packed = PackedCliffordTableau(n)
        rng_pure = np.random.default_rng(3)
        rng_packed = np.random.default_rng(3)
        pure.apply_gates(ops, rng_pure)
        packed.apply_gates(ops, rng_packed)
        _assert_same_state(pure, packed)
        assert rng_pure.random() == rng_packed.random()
        assert packed.is_deterministic(n - 1)
        assert packed.measure(n - 1, None) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_reset_circuit_matches_the_reference(self, seed):
        """Bell pair, reset q0 (random outcome m), then q2 = 1 ^ m, reset q1."""
        circuit = QuantumCircuit(3).h(0).cx(0, 1).reset(0).x(2).cx(1, 2).reset(1)
        fast = StabilizerSimulator(seed=seed).probabilities(circuit)
        with installed() as calls:
            pure = StabilizerSimulator(seed=seed).probabilities(circuit)
        assert calls["tableau"] == 1
        assert fast == pure
        assert fast in ({"001": 1.0}, {"000": 1.0})

    def test_rejects_what_it_cannot_apply(self):
        with pytest.raises(SimulationError):
            PackedCliffordTableau(2).apply_gates([("t", (0,), ())])
        with pytest.raises(SimulationError):
            PackedCliffordTableau(2).apply_gates([("rz", (0,), (0.3,))])


def _random_clifford_circuit(n: int, seed: int) -> QuantumCircuit:
    """A seeded random circuit over every gate the tableau applies."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(n)
    for _ in range(int(rng.integers(0, 4 * n + 1))):
        if n >= 2 and rng.random() < 0.4:
            a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
            circuit.add(_TWO_QUBIT[int(rng.integers(0, len(_TWO_QUBIT)))], [a, b])
        elif rng.random() < 0.2:
            circuit.rz(int(rng.integers(0, 4)) * np.pi / 2, int(rng.integers(0, n)))
        else:
            name = _ONE_QUBIT[int(rng.integers(0, len(_ONE_QUBIT)))]
            circuit.add(name, [int(rng.integers(0, n))])
    return circuit


class TestSupportEnumeration:
    def test_probabilities_match_the_recursive_walk(self):
        """400 random Clifford circuits on 1-10 qubits, compared item by item."""
        for seed in range(400):
            circuit = _random_clifford_circuit(1 + seed % 10, seed)
            expected = enumerate_probabilities(StabilizerSimulator().run(circuit))
            actual = StabilizerSimulator().probabilities(circuit)
            assert [(key, value.hex()) for key, value in actual.items()] == [
                (key, value.hex()) for key, value in expected.items()
            ], f"seed {seed}"


class TestPackingFuzz:
    def test_thousand_tableau_round_trip(self):
        """1000 random row blocks survive pack -> unpack -> pack unchanged."""
        rng = np.random.default_rng(123)
        for case in range(1000):
            n = int(rng.integers(1, 130))
            rows = int(rng.integers(1, 7))
            bits = rng.integers(0, 2, size=(rows, n)).astype(bool)
            words = symplectic.pack_rows(bits, n)
            assert words.shape == (rows, symplectic.num_words(n))
            np.testing.assert_array_equal(
                symplectic.unpack_rows(words, n), bits, err_msg=f"case {case} n={n}"
            )
            np.testing.assert_array_equal(symplectic.pack_rows(symplectic.unpack_rows(words, n), n), words)

    def test_pad_bits_stay_zero(self):
        rng = np.random.default_rng(7)
        for n in (1, 63, 65, 127, 129):
            bits = rng.integers(0, 2, size=(5, n)).astype(bool)
            words = symplectic.pack_rows(bits, n)
            pad = symplectic.num_words(n) * symplectic.WORD_BITS - n
            if pad:
                shifted = words[:, -1] >> np.uint64(symplectic.WORD_BITS - pad)
                assert not shifted.any()

    def test_bit_column_matches_unpacked(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, size=(9, 129)).astype(bool)
        words = symplectic.pack_rows(bits, 129)
        for qubit in (0, 63, 64, 65, 127, 128):
            np.testing.assert_array_equal(
                symplectic.bit_column(words, qubit), bits[:, qubit]
            )


class TestKernelPrimitives:
    def test_popcount_against_python(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, size=64, dtype=np.uint64)
        expected = np.array([int(w).bit_count() for w in words])
        np.testing.assert_array_equal(symplectic.popcount64(words).astype(int), expected)

    def test_xor_gather_reduce_brute_force(self):
        rng = np.random.default_rng(17)
        E, B, W, T = 37, 5, 3, 11
        masks = rng.integers(0, 2**64, size=(E, B, W), dtype=np.uint64)
        chosen = rng.integers(0, B, size=(T, E)).astype(np.int64)
        result = symplectic.xor_gather_reduce(masks, chosen)
        expected = np.zeros((T, W), dtype=np.uint64)
        for t in range(T):
            for e in range(E):
                expected[t] ^= masks[e, chosen[t, e]]
        np.testing.assert_array_equal(result, expected)

    def test_product_phase_matches_sequential_rowsum(self):
        """The prefix-XOR product equals folding rows one by one."""
        for seed, n in [(0, 5), (1, 63), (2, 64), (3, 65), (4, 129)]:
            pure, packed = _random_pair(n, seed=4000 + seed, gates=60)
            # Stabilizer rows with an X-component on qubit 0 form a commuting,
            # physically meaningful product (the deterministic-measurement
            # reduction uses exactly this structure with destabilizer rows).
            rows = [i + n for i in range(n) if pure.x[i, 0]]
            if len(rows) < 2:
                continue
            hx = np.zeros(n, dtype=bool)
            hz = np.zeros(n, dtype=bool)
            hr = False
            for i in rows:
                hx, hz, hr = pure._rowsum_into(hx, hz, hr, i)
            px, pz, pr = symplectic.product_phase(
                packed.xw[rows], packed.zw[rows], packed.r[rows]
            )
            np.testing.assert_array_equal(symplectic.unpack_rows(px[None, :], n)[0], hx)
            np.testing.assert_array_equal(symplectic.unpack_rows(pz[None, :], n)[0], hz)
            assert bool(pr) == bool(hr)


class TestMirrorTargetDifferential:
    @pytest.mark.parametrize("n", [2, 63, 64, 65, 127, 129])
    def test_target_identical_between_kernel_modes(self, n):
        fast = mirror_target(n, seed=7)
        with installed() as calls:
            pure = mirror_target(n, seed=7)
        assert calls["mirror_target"] == 1
        assert fast == pure
        assert len(fast) == n

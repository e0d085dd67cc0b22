"""Differential tests of calibration generation against the per-pair reference.

Production draws every (spectator qubit, link) crosstalk value into two
``(qubits, links)`` float arrays; ``oracle.calibration`` draws the same
values into one ``CrosstalkEntry`` per pair in a dict.  The arrays claim the
same bits, so every comparison here is exact: float hex for every pair,
equal ``crosstalk_rows`` bytes, equal calibration fingerprints and the same
generator state left behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import calibration as reference

from repro.hardware import generate_calibration, get_device, list_devices, synthetic_device
from repro.store.keys import calibration_fingerprint


@st.composite
def devices(draw):
    """Small devices with reversed and duplicate edges, disconnected
    components, isolated qubits and no edges at all."""
    num_qubits = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(0, num_qubits - 1), st.integers(0, num_qubits - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=14))
    if edges and draw(st.booleans()):
        # Repeat some edges, as given or reversed: the later draw is kept.
        for a, b in draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4)):
            repeat = draw(st.sampled_from([(a, b), (b, a)]))
            edges.insert(draw(st.integers(0, len(edges))), repeat)
    name = draw(st.sampled_from(["dev_a", "dev_b", "dev_c"]))
    template = draw(st.sampled_from(["ibmq_toronto", "ibmq_rome"]))
    return synthetic_device(num_qubits, edges=edges, name=name, template=template)


def _hex(entry):
    return (entry.dephasing_multiplier.hex(), entry.zz_shift_rate.hex())


def _rows(calibration, qubit, links):
    excess, zz_rates = calibration.crosstalk_rows(qubit, links)
    return excess.dtype.str, excess.tobytes(), zz_rates.dtype.str, zz_rates.tobytes()


def assert_same_calibration(device, calibration, expected):
    """Every drawn float, lookup, row and the fingerprint agree exactly."""
    assert list(calibration.qubits.items()) == list(expected.qubits.items())
    assert list(calibration.links.items()) == list(expected.links.items())
    assert calibration.crosstalk_links == tuple(expected.links)
    assert calibration.dephasing_multipliers.flags.writeable is False
    assert calibration.zz_shift_rates.flags.writeable is False
    n = device.num_qubits
    assert calibration.dephasing_multipliers.shape == (n, len(expected.links))
    for column, link in enumerate(calibration.crosstalk_links):
        for qubit in range(n):
            entry = expected.crosstalk_on(qubit, link)
            drawn = (qubit, link) in expected.crosstalk
            assert drawn == (qubit not in link)
            assert _hex(calibration.crosstalk_on(qubit, link)) == _hex(entry)
            assert _hex(calibration.crosstalk_on(qubit, link[::-1])) == _hex(entry)
            assert (
                float(calibration.dephasing_multipliers[qubit, column]).hex(),
                float(calibration.zz_shift_rates[qubit, column]).hex(),
            ) == _hex(entry)
    # Every edge as given (reversed or repeated ones too), then links the
    # device lacks; qubits inside and outside the register.
    absent = [(a, b) for a in range(n + 1) for b in range(a + 1, n + 2)]
    absent = [link for link in absent if link not in expected.links][:3]
    links = list(device.edges) + absent
    for qubit in [-1, *range(n), n, n + 4]:
        assert _rows(calibration, qubit, links) == _rows(expected, qubit, links)
    excess, zz_rates = calibration.crosstalk_columns(links)
    for qubit in range(n):
        expected_rows = _rows(expected, qubit, links)
        assert (excess[qubit].tobytes(), zz_rates[qubit].tobytes()) == expected_rows[1::2]
    assert calibration_fingerprint(calibration) == reference.calibration_fingerprint(expected)


class TestCrosstalkArrays:
    @given(device=devices(), cycle=st.integers(0, 5))
    @settings(max_examples=120, deadline=None)
    def test_seeded_generation_matches_the_per_pair_dict(self, device, cycle):
        assert_same_calibration(
            device,
            generate_calibration(device, cycle=cycle),
            reference.generate_calibration(device, cycle=cycle),
        )

    @given(device=devices(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_rng_override_matches_and_leaves_the_same_state(self, device, seed):
        rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        calibration = generate_calibration(device, rng=rng)
        expected = reference.generate_calibration(device, rng=expected_rng)
        assert_same_calibration(device, calibration, expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("cycle", [0, 3])
    @pytest.mark.parametrize("name", list_devices())
    def test_registered_devices(self, name, cycle):
        device = get_device(name)
        assert_same_calibration(
            device,
            generate_calibration(device, cycle=cycle),
            reference.generate_calibration(device, cycle=cycle),
        )

    def test_duplicate_edge_keeps_the_later_draw(self):
        """``(0, 1)`` twice, once reversed: two draws per spectator, one column."""
        device = synthetic_device(4, edges=[(0, 1), (1, 2), (1, 0), (2, 3)], name="dup")
        calibration = generate_calibration(device, cycle=1)
        expected = reference.generate_calibration(device, cycle=1)
        assert calibration.crosstalk_links == ((0, 1), (1, 2), (2, 3))
        assert_same_calibration(device, calibration, expected)

    def test_disconnected_components_and_isolated_qubits(self):
        device = synthetic_device(7, edges=[(0, 1), (1, 2), (4, 5)], name="split")
        calibration = generate_calibration(device, cycle=2)
        expected = reference.generate_calibration(device, cycle=2)
        assert_same_calibration(device, calibration, expected)
        # Qubits 3 and 6 are isolated and 4-5 never reach (0, 1): all drawn.
        assert (calibration.zz_shift_rates[3:, 0] != 0.0).all()

    def test_edgeless_device(self):
        device = synthetic_device(3, edges=[], name="bare")
        calibration = generate_calibration(device)
        assert calibration.crosstalk_links == ()
        assert calibration.dephasing_multipliers.shape == (3, 0)
        assert_same_calibration(device, calibration, reference.generate_calibration(device))


class TestNeutralDefault:
    @pytest.fixture(scope="class")
    def calibration(self):
        return generate_calibration(get_device("ibmq_rome"), cycle=0)

    @pytest.mark.parametrize(
        "qubit,link",
        [
            (0, (0, 1)),  # the qubit on the link
            (1, (1, 0)),
            (2, (0, 4)),  # a link the device lacks
            (5, (0, 1)),  # qubits outside the register
            (-1, (0, 1)),
        ],
    )
    def test_pairs_without_a_draw_read_neutral(self, calibration, qubit, link):
        entry = calibration.crosstalk_on(qubit, link)
        assert (entry.dephasing_multiplier, entry.zz_shift_rate) == (1.0, 0.0)
        excess, zz_rates = calibration.crosstalk_rows(qubit, [(1, 2), link])
        assert excess[1] == 0.0 and zz_rates[1] == 0.0
        if 0 <= qubit < 5:
            assert excess[0] == calibration.crosstalk_on(qubit, (2, 1)).dephasing_multiplier - 1.0

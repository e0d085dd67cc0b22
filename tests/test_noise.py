"""Tests for the gate-level and idle-window noise models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Gate
from repro.dd import XY4Sequence, IBMQDDSequence
from repro.hardware import generate_calibration, get_device
from repro.noise import GateNoiseModel, IdleNoiseModel, NoiseOp
from repro.simulators import channels


@pytest.fixture(scope="module")
def calibration():
    return generate_calibration(get_device("ibmq_guadalupe"), cycle=0)


@pytest.fixture(scope="module")
def gate_noise(calibration):
    return GateNoiseModel(calibration)


@pytest.fixture(scope="module")
def idle_noise(calibration):
    return IdleNoiseModel(calibration)


class TestNoiseOp:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            NoiseOp(kind="banana", qubits=(0,), payload=None)


class TestGateNoise:
    def test_single_qubit_gate_gets_depolarizing(self, gate_noise):
        ops = gate_noise.gate_noise(Gate("sx", (3,)))
        assert len(ops) == 1
        assert ops[0].kind == "kraus"
        assert ops[0].qubits == (3,)
        assert channels.is_valid_channel(ops[0].payload)

    def test_cnot_gets_two_qubit_depolarizing(self, gate_noise):
        ops = gate_noise.gate_noise(Gate("cx", (0, 1)))
        assert len(ops) == 1
        assert ops[0].payload[0].shape == (4, 4)

    def test_swap_costs_three_cnots(self, gate_noise, calibration):
        swap_ops = gate_noise.gate_noise(Gate("swap", (0, 1)))
        base = calibration.cnot_error(0, 1)
        swap_weight = 1 - np.real(np.trace(
            swap_ops[0].payload[0].conj().T @ swap_ops[0].payload[0]
        )) / 4
        assert swap_weight == pytest.approx(1 - (1 - base) ** 3, rel=1e-6)

    def test_non_physical_link_uses_average_error(self, gate_noise):
        # (0, 3) is not an edge of Guadalupe; the model falls back gracefully.
        ops = gate_noise.gate_noise(Gate("cx", (0, 3)))
        assert len(ops) == 1

    def test_dd_pulses_and_pseudo_gates_have_no_gate_noise(self, gate_noise):
        assert gate_noise.gate_noise(Gate("x", (0,), label="dd")) == []
        assert gate_noise.gate_noise(Gate("measure", (0,))) == []
        assert gate_noise.gate_noise(Gate("barrier", (0, 1))) == []
        assert gate_noise.gate_noise(Gate("delay", (0,), duration=10)) == []

    def test_readout_confusion_is_stochastic_matrix(self, gate_noise):
        matrix = gate_noise.readout_confusion(5)
        assert np.allclose(matrix.sum(axis=0), [1, 1])
        assert (matrix >= 0).all()

    def test_apply_readout_error_preserves_normalisation(self, gate_noise):
        probs = np.array([0.7, 0.1, 0.1, 0.1])
        noisy = gate_noise.apply_readout_error(probs, [0, 1])
        assert noisy.sum() == pytest.approx(1.0)
        assert noisy[0] < 0.7  # some weight leaks out of the top outcome

    def test_readout_error_mixes_towards_other_outcomes(self, gate_noise):
        probs = np.array([1.0, 0.0])
        noisy = gate_noise.apply_readout_error(probs, [2])
        assert 0 < noisy[1] < 0.2


def crosstalk_terms(idle_noise, qubit, link, overlap):
    """``window_effect``'s crosstalk terms for one CNOT link's overlap."""
    excess, zz_rates = idle_noise.calibration.crosstalk_rows(qubit, [link])
    return excess, zz_rates, np.array([overlap])


class TestIdleWindowEffect:
    def test_longer_idle_is_worse(self, idle_noise):
        short = idle_noise.window_effect(0, 1000.0)
        long = idle_noise.window_effect(0, 10000.0)
        assert long.t1_decay > short.t1_decay
        assert long.static_phase_std > short.static_phase_std
        assert idle_noise.fidelity_proxy(long) < idle_noise.fidelity_proxy(short)

    def test_crosstalk_amplifies_dephasing(self, idle_noise, calibration):
        free = idle_noise.window_effect(0, 4000.0)
        # link (1, 2) is adjacent to qubit 0 on Guadalupe
        crosstalk = idle_noise.window_effect(
            0, 4000.0, crosstalk_terms(idle_noise, 0, (1, 2), 4000.0)
        )
        assert crosstalk.static_phase_std > free.static_phase_std
        assert idle_noise.fidelity_proxy(crosstalk) <= idle_noise.fidelity_proxy(free)

    def test_dd_suppresses_static_noise(self, idle_noise):
        train = XY4Sequence().build_train(0, 0.0, 8000.0)
        free = idle_noise.window_effect(
            0, 8000.0, crosstalk_terms(idle_noise, 0, (1, 2), 8000.0)
        )
        protected = idle_noise.window_effect(
            0, 8000.0, crosstalk_terms(idle_noise, 0, (1, 2), 8000.0), train
        )
        assert protected.dd_suppression < 1.0
        assert protected.dd_pulse_count == train.num_pulses
        assert protected.dd_pulse_depolarizing > 0
        # The *suppressed* static noise is what the executor applies.
        assert (
            protected.static_phase_std * protected.dd_suppression
            < free.static_phase_std
        )

    def test_dd_does_not_suppress_t1(self, idle_noise):
        train = XY4Sequence().build_train(0, 0.0, 8000.0)
        free = idle_noise.window_effect(0, 8000.0)
        protected = idle_noise.window_effect(0, 8000.0, dd_train=train)
        assert protected.t1_decay == pytest.approx(free.t1_decay)
        assert protected.markovian_dephasing == pytest.approx(free.markovian_dephasing)

    def test_xy4_refocuses_better_than_sparse_ibmq_dd(self, idle_noise):
        window = 8000.0
        xy4 = XY4Sequence().build_train(0, 0.0, window)
        ibmq = IBMQDDSequence(repetition_period_ns=None).build_train(0, 0.0, window)
        assert idle_noise.dd_suppression_factor(0, xy4) < idle_noise.dd_suppression_factor(0, ibmq)

    def test_negative_duration_rejected(self, idle_noise):
        with pytest.raises(ValueError):
            idle_noise.window_effect(0, -1.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_coherent_pulse_error_applied_for_either_sign(self, sign):
        """Regression: negative dd_coherent_error calibrations dropped the rx.

        ``noise_ops`` used ``> 0`` where the closed-form ``fidelity_proxy``
        counts the rotation through cos² either way — the applied noise and
        the estimate disagreed for negative calibrations.
        """
        from repro.noise.idling import IdleWindowEffect

        effect = IdleWindowEffect(
            qubit=0,
            duration_ns=4000.0,
            t1_decay=0.0,
            markovian_dephasing=0.0,
            static_phase_std=0.0,
            coherent_phase=0.0,
            dd_suppression=0.5,
            dd_pulse_count=4,
            dd_pulse_depolarizing=0.0,
            dd_coherent_rotation=sign * 0.21,
        )
        rx_ops = [op for op in effect.noise_ops() if op.kind == "rx"]
        assert len(rx_ops) == 1
        assert rx_ops[0].payload == pytest.approx(sign * 0.21)

    def test_negative_coherent_error_calibration_hurts_applied_and_estimate(
        self, idle_noise, calibration
    ):
        """A miscalibrated-pulse qubit is penalised regardless of error sign."""
        import dataclasses

        train = XY4Sequence().build_train(0, 0.0, 8000.0)
        effect = idle_noise.window_effect(0, 8000.0, dd_train=train)
        flipped = dataclasses.replace(
            effect, dd_coherent_rotation=-0.02 * effect.dd_pulse_count
        )
        assert flipped.dd_coherent_rotation < 0
        kinds = [op.kind for op in flipped.noise_ops()]
        assert "rx" in kinds  # the applied noise now matches ...
        proxy_clean = idle_noise.fidelity_proxy(
            dataclasses.replace(flipped, dd_coherent_rotation=0.0)
        )
        # ... the closed-form estimate, which penalises either sign.
        assert idle_noise.fidelity_proxy(flipped) < proxy_clean

    def test_noise_ops_are_well_formed(self, idle_noise):
        train = XY4Sequence().build_train(0, 0.0, 5000.0)
        effect = idle_noise.window_effect(
            0, 5000.0, crosstalk_terms(idle_noise, 0, (1, 2), 2000.0), train
        )
        ops = effect.noise_ops()
        assert all(isinstance(op, NoiseOp) for op in ops)
        assert all(op.qubits == (0,) for op in ops)
        kinds = {op.kind for op in ops}
        assert "kraus" in kinds
        assert "gaussian_phase" in kinds
        for op in ops:
            if op.kind == "kraus":
                assert channels.is_valid_channel(op.payload)

    def test_zero_duration_window_is_noiseless(self, idle_noise):
        effect = idle_noise.window_effect(0, 0.0)
        assert effect.t1_decay == pytest.approx(0.0)
        assert effect.static_phase_std == pytest.approx(0.0)
        assert idle_noise.fidelity_proxy(effect) == pytest.approx(1.0, abs=1e-6)

    @given(duration=st.floats(0.0, 50000.0))
    @settings(max_examples=30, deadline=None)
    def test_fidelity_proxy_is_bounded(self, idle_noise, duration):
        effect = idle_noise.window_effect(
            1, duration, crosstalk_terms(idle_noise, 1, (4, 7), duration / 2)
        )
        assert 0.0 <= idle_noise.fidelity_proxy(effect) <= 1.0

    @given(
        duration=st.floats(300.0, 30000.0),
        qubit=st.integers(0, 15),
    )
    @settings(max_examples=30, deadline=None)
    def test_dd_protection_reports_consistent_bookkeeping(self, idle_noise, duration, qubit):
        train = XY4Sequence().build_train(qubit, 0.0, duration)
        if train is None:
            return
        effect = idle_noise.window_effect(qubit, duration, dd_train=train)
        assert effect.is_dd_protected
        assert 0.0 < effect.dd_suppression <= 1.0
        assert 0.0 <= effect.dd_pulse_depolarizing <= 1.0

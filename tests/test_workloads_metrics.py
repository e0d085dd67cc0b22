"""Tests for the benchmark workloads and the reliability metrics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    fidelity,
    geometric_mean,
    hellinger_distance,
    normalize_counts,
    normalized_entropy,
    rank_agreement,
    relative_fidelity,
    shannon_entropy,
    spearman_correlation,
    success_probability,
    total_variation_distance,
)
from repro.simulators import StatevectorSimulator
from repro.transpiler.layout import interaction_graph
from repro.workloads import (
    BENCHMARKS,
    adder_expected_output,
    bernstein_vazirani,
    bv_expected_output,
    get_benchmark,
    ghz,
    qaoa_benchmark,
    qft,
    qft_benchmark,
    qpe_expected_output,
    quantum_adder,
    quantum_phase_estimation,
    table4_suite,
)


def top_outcome(circuit):
    probabilities = StatevectorSimulator().probabilities(circuit)
    index = int(np.argmax(probabilities))
    return format(index, f"0{circuit.num_qubits}b"), float(probabilities[index])


class TestBV:
    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_output_is_secret_plus_ancilla(self, size):
        outcome, probability = top_outcome(bernstein_vazirani(size))
        assert outcome == bv_expected_output(size)
        assert probability == pytest.approx(1.0)

    def test_custom_secret(self):
        circuit = bernstein_vazirani(5, secret="1101")
        outcome, _ = top_outcome(circuit)
        assert outcome == "11011"

    def test_invalid_secret_rejected(self):
        with pytest.raises(ValueError):
            bernstein_vazirani(4, secret="11")
        with pytest.raises(ValueError):
            bernstein_vazirani(1)

    def test_cnot_count_matches_secret_weight(self):
        circuit = bernstein_vazirani(6, secret="10110")
        assert circuit.num_two_qubit_gates == 3


class TestQFT:
    def test_inverse_cancels_forward(self):
        composed = qft(4).compose(qft(4, inverse=True))
        unitary = composed.to_unitary()
        phase = unitary[0, 0]
        assert np.allclose(unitary, phase * np.eye(16), atol=1e-8)

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_benchmark_output_is_deterministic(self, variant):
        circuit = qft_benchmark(5, variant)
        _, probability = top_outcome(circuit)
        assert probability == pytest.approx(1.0, abs=1e-6)

    def test_variant_b_is_deeper_than_a(self):
        a, b = qft_benchmark(6, "A"), qft_benchmark(6, "B")
        assert b.depth() > a.depth()
        assert b.num_gates > a.num_gates

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            qft_benchmark(5, "C")

    def test_encoded_value_round_trip(self):
        circuit = qft_benchmark(4, "A", encoded_value=9)
        outcome, _ = top_outcome(circuit)
        assert outcome == format(9, "04b")


class TestQAOA:
    def test_ring_edges(self):
        circuit = qaoa_benchmark(6, "A")
        assert circuit.num_two_qubit_gates == 12  # 6 edges x 2 CNOTs per edge

    def test_variant_b_has_more_gates(self):
        assert qaoa_benchmark(8, "B").num_gates > qaoa_benchmark(8, "A").num_gates

    @pytest.mark.parametrize("num_qubits", [8, 10])
    def test_variant_b_graphs_are_3_regular(self, num_qubits):
        graph = interaction_graph(qaoa_benchmark(num_qubits, "B"))
        assert sorted(graph) == list(range(num_qubits))
        assert all(len(partners) == 3 for partners in graph.values())

    def test_variant_b_exists_only_for_table4_sizes(self):
        with pytest.raises(ValueError, match="'B' instances"):
            qaoa_benchmark(12, "B")

    def test_output_distribution_is_normalised(self):
        probabilities = StatevectorSimulator().probabilities(qaoa_benchmark(6, "A"))
        assert probabilities.sum() == pytest.approx(1.0)

    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            qaoa_benchmark(6, "Z")


class TestAdderAndQPE:
    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_one_bit_adder_truth_table(self, a, b):
        outcome, probability = top_outcome(quantum_adder(1, a, b))
        assert probability == pytest.approx(1.0, abs=1e-6)
        assert outcome == adder_expected_output(1, a, b)

    def test_two_bit_adder(self):
        outcome, probability = top_outcome(quantum_adder(2, 2, 3))
        assert probability == pytest.approx(1.0, abs=1e-6)
        assert outcome == adder_expected_output(2, 2, 3)

    def test_adder_rejects_out_of_range_operands(self):
        with pytest.raises(ValueError):
            quantum_adder(1, 2, 0)

    def test_qpe_recovers_exact_phase(self):
        outcome, probability = top_outcome(quantum_phase_estimation(5))
        assert outcome == qpe_expected_output(5)
        assert probability == pytest.approx(1.0, abs=1e-6)

    def test_qpe_custom_phase(self):
        outcome, probability = top_outcome(quantum_phase_estimation(5, phase=3 / 16))
        assert outcome == qpe_expected_output(5, phase=3 / 16)
        assert probability == pytest.approx(1.0, abs=1e-6)

    def test_ghz_support(self):
        probabilities = StatevectorSimulator().probabilities(ghz(4))
        assert probabilities[0] == pytest.approx(0.5)
        assert probabilities[-1] == pytest.approx(0.5)


class TestSuite:
    def test_table4_contains_eleven_benchmarks(self):
        suite = table4_suite()
        assert len(suite) == 11
        assert [spec.name for spec in suite][:2] == ["BV-7", "BV-8"]

    def test_every_benchmark_builds_with_declared_size(self):
        for name, spec in BENCHMARKS.items():
            circuit = spec.build()
            assert circuit.num_qubits == spec.num_qubits, name
            assert circuit.num_measurements == spec.num_qubits, name

    def test_lookup_is_case_insensitive(self):
        assert get_benchmark("qft-6a").name == "QFT-6A"
        with pytest.raises(KeyError):
            get_benchmark("QFT-99")


class TestMetrics:
    def test_tvd_bounds(self):
        assert total_variation_distance({"0": 1.0}, {"0": 1.0}) == 0.0
        assert total_variation_distance({"0": 1.0}, {"1": 1.0}) == 1.0

    def test_fidelity_is_one_minus_tvd(self):
        p = {"00": 0.5, "11": 0.5}
        q = {"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}
        assert fidelity(p, q) == pytest.approx(1 - total_variation_distance(p, q))

    def test_counts_are_normalised_automatically(self):
        assert fidelity({"0": 2, "1": 2}, {"0": 500, "1": 500}) == pytest.approx(1.0)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ValueError):
            normalize_counts({"0": 0.0})

    def test_relative_fidelity(self):
        ideal = {"0": 1.0}
        assert relative_fidelity(ideal, {"0": 0.8, "1": 0.2}, {"0": 0.4, "1": 0.6}) == pytest.approx(2.0)

    def test_success_probability_handles_multiple_winners(self):
        ideal = {"00": 0.5, "11": 0.5}
        observed = {"00": 0.3, "11": 0.4, "01": 0.3}
        assert success_probability(ideal, observed) == pytest.approx(0.7)

    def test_hellinger_bounds(self):
        assert hellinger_distance({"0": 1.0}, {"0": 1.0}) == pytest.approx(0.0)
        assert hellinger_distance({"0": 1.0}, {"1": 1.0}) == pytest.approx(1.0)

    def test_entropy_values(self):
        assert shannon_entropy({"0": 1.0}) == pytest.approx(0.0)
        assert shannon_entropy({"0": 0.5, "1": 0.5}) == pytest.approx(1.0)
        assert normalized_entropy({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}, 2) == pytest.approx(1.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_spearman_detects_monotonic_relationship(self):
        x = [1, 2, 3, 4, 5]
        assert spearman_correlation(x, [2, 4, 6, 8, 10]) == pytest.approx(1.0)
        assert spearman_correlation(x, [10, 8, 6, 4, 2]) == pytest.approx(-1.0)

    def test_correlation_input_validation(self):
        with pytest.raises(ValueError):
            spearman_correlation([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            spearman_correlation([1, 2], [3, 4])

    def test_spearman_matches_scipy_bit_for_bit(self):
        """The decoy correlation of Figure 9 / Table 2 is pinned by stored
        records, so the numpy ranking must reproduce scipy's rho exactly."""
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for trial in range(400):
            n = int(rng.integers(3, 40))
            if trial % 2:  # heavy ties
                a = rng.integers(0, 4, n).astype(float)
                b = rng.integers(0, 5, n).astype(float)
            else:
                a, b = rng.random(n), rng.random(n)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy warns on constant input
                rho = float(stats.spearmanr(a, b)[0])
            expected = 0.0 if math.isnan(rho) else rho
            assert spearman_correlation(a, b).hex() == expected.hex()

    def test_spearman_is_zero_for_constant_or_nan_input(self):
        assert spearman_correlation([1, 1, 1], [1, 2, 3]) == 0.0
        assert spearman_correlation([1, 2, 3], [float("nan"), 2, 3]) == 0.0

    def test_rank_agreement(self):
        a = [0.1, 0.9, 0.5, 0.7]
        b = [0.2, 0.8, 0.4, 0.6]
        assert rank_agreement(a, b, top_k=2) == 1.0
        with pytest.raises(ValueError):
            rank_agreement(a, b, top_k=9)

    def test_rank_agreement_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="finite"):
            rank_agreement([float("nan"), 1.0], [0.5, 1.0], top_k=1)
        with pytest.raises(ValueError, match="finite"):
            rank_agreement([0.5, 1.0], [float("inf"), 1.0], top_k=1)

    def test_rank_agreement_is_order_independent_under_ties(self):
        """Regression: argsort tie-breaks by index made ties order-dependent."""
        a = [0.9, 0.9, 0.9, 0.1]
        b = [0.9, 0.1, 0.9, 0.9]
        score = rank_agreement(a, b, top_k=1)
        # Reversing both sequences permutes the tied entries; the score must
        # not move.
        assert rank_agreement(a[::-1], b[::-1], top_k=1) == score
        # All three tied leaders of each side are top-k; two of them overlap.
        assert score == pytest.approx(2 / 3)

    def test_rank_agreement_ties_with_kth_value_join_the_top_set(self):
        a = [0.5, 0.5, 0.2, 0.1]
        b = [0.5, 0.4, 0.3, 0.1]
        # Index 0 and 1 tie at a's maximum; only index 0 leads in b.
        assert rank_agreement(a, b, top_k=1) == pytest.approx(0.5)
        # Without ties the score reduces to the plain |top_a & top_b| / k.
        assert rank_agreement([4, 3, 2, 1], [4, 3, 1, 2], top_k=2) == 1.0

    def test_rank_agreement_permutation_invariance(self):
        import random

        rng = random.Random(7)
        a = [0.3, 0.3, 0.9, 0.9, 0.1, 0.3]
        b = [0.9, 0.3, 0.3, 0.9, 0.3, 0.1]
        baseline = rank_agreement(a, b, top_k=2)
        indices = list(range(len(a)))
        for _ in range(10):
            rng.shuffle(indices)
            assert rank_agreement(
                [a[i] for i in indices], [b[i] for i in indices], top_k=2
            ) == pytest.approx(baseline)

    @given(
        weights=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_tvd_properties(self, weights):
        keys = [format(i, "05b") for i in range(len(weights))]
        p = dict(zip(keys, weights))
        q = dict(zip(keys, reversed(weights)))
        tvd_pq = total_variation_distance(p, q)
        assert 0.0 <= tvd_pq <= 1.0
        assert tvd_pq == pytest.approx(total_variation_distance(q, p))
        assert total_variation_distance(p, p) == pytest.approx(0.0, abs=1e-12)

    @given(values=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_geometric_mean_between_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

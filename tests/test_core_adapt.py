"""Tests for decoy circuits, the search algorithms, policies and ADAPT itself."""

import math

import pytest

from repro.circuits import QuantumCircuit
from repro.core import (
    Adapt,
    AdaptConfig,
    AllDDPolicy,
    LocalizedSearch,
    NoDDPolicy,
    RuntimeBestPolicy,
    all_assignments,
    clifford_decoy,
    compiled_ideal_distribution,
    evaluate_policies,
    logical_ideal_distribution,
    make_decoy,
    seeded_decoy,
    standard_policies,
    summarize_relative_fidelity,
    trivial_decoy,
)
from repro.core.ideal import DECOY_TIERS, PROGRAM_TIERS, ideal_distribution
from repro.hardware import NoisyExecutor
from repro.metrics import fidelity
from repro.simulators import StabilizerSimulator, StatevectorSimulator
from repro.transpiler import transpile
from repro.workloads import (
    bernstein_vazirani,
    get_benchmark,
    ghz,
    qft_benchmark,
    quantum_adder,
)


@pytest.fixture(scope="module")
def compiled_adder(rome_backend_module):
    return transpile(quantum_adder(1), rome_backend_module)


@pytest.fixture(scope="module")
def rome_backend_module():
    from repro.hardware import Backend

    return Backend.from_name("ibmq_rome", cycle=0)


@pytest.fixture(scope="module")
def rome_executor_module(rome_backend_module):
    return NoisyExecutor(rome_backend_module, seed=17, trajectories=60)


class TestDecoys:
    def test_cdc_is_clifford_only_and_preserves_structure(self, compiled_adder):
        decoy = clifford_decoy(compiled_adder.physical_circuit)
        assert decoy.circuit.is_clifford_only()
        assert decoy.preserves_structure()
        assert decoy.kind == "cdc"
        assert len(decoy.circuit) == len(compiled_adder.physical_circuit)

    def test_sdc_keeps_a_few_seeds(self, compiled_adder):
        decoy = seeded_decoy(compiled_adder.physical_circuit, max_seed_qubits=2)
        assert decoy.kind == "sdc"
        assert decoy.preserves_structure()
        assert 0 < decoy.num_non_clifford <= 2

    def test_trivial_decoy_keeps_only_multi_qubit_gates(self, compiled_adder):
        decoy = trivial_decoy(compiled_adder.physical_circuit)
        assert decoy.preserves_structure()
        for gate in decoy.circuit:
            assert not (gate.is_unitary and gate.num_qubits == 1)

    def test_make_decoy_factory(self, compiled_adder):
        assert make_decoy(compiled_adder.physical_circuit, "cdc").kind == "cdc"
        assert make_decoy(compiled_adder.physical_circuit, "sdc").kind == "sdc"
        with pytest.raises(ValueError):
            make_decoy(compiled_adder.physical_circuit, "magic")

    def test_ideal_distribution_is_normalised_and_cached(self, compiled_adder):
        decoy = clifford_decoy(compiled_adder.physical_circuit)
        outputs = compiled_adder.output_qubits
        first = decoy.ideal_distribution(outputs)
        second = decoy.ideal_distribution(outputs)
        assert first is second
        assert sum(first.values()) == pytest.approx(1.0, abs=1e-9)

    def test_decoy_of_clifford_circuit_matches_original(self, rome_backend_module):
        compiled = transpile(ghz(3), rome_backend_module)
        decoy = clifford_decoy(compiled.physical_circuit)
        ideal = compiled_ideal_distribution(compiled)
        decoy_ideal = decoy.ideal_distribution(compiled.output_qubits)
        # GHZ is Clifford; allow tiny numerical differences from basis changes.
        assert fidelity(ideal, decoy_ideal) > 0.99

    def test_sdc_entropy_not_higher_than_cdc_for_qft(self, rome_backend_module):
        compiled = transpile(qft_benchmark(4, "A"), rome_backend_module)
        outputs = compiled.output_qubits
        cdc = clifford_decoy(compiled.physical_circuit)
        sdc = seeded_decoy(compiled.physical_circuit)
        assert sdc.output_entropy(outputs) <= cdc.output_entropy(outputs) + 0.35


def _marginal(raw, used, output_qubits):
    position = {qubit: index for index, qubit in enumerate(used)}
    out = {}
    for bits, probability in raw:
        key = "".join(bits[position[q]] for q in output_qubits)
        out[key] = out.get(key, 0.0) + probability
    return list(out.items())


class TestIdealTiers:
    def test_quarter_turn_rx_decoy_falls_back_to_the_statevector(self):
        # rx(pi/2) is Clifford by Gate.is_clifford but has no tableau rule, so
        # the decoy's ideal must come from the dense statevector.
        circuit = QuantumCircuit(2)
        circuit.rx(math.pi / 2, 0)
        circuit.cx(0, 1)
        circuit.measure_all()
        distribution = clifford_decoy(circuit).ideal_distribution([0, 1])
        assert list(distribution.items()) == [
            ("00", 0.5000000000000001),
            ("11", 0.4999999999999999),
        ]

    def test_each_tier_order_keeps_its_callers_bits(self, toronto_backend):
        """QFT-6A's CDC: the tableau and statevector differ in the last bits.

        Decoys read the tableau and programs the statevector, so swapping the
        two tier tuples fails here.
        """
        compiled = transpile(get_benchmark("QFT-6A").build(), toronto_backend)
        decoy = clifford_decoy(compiled.physical_circuit)
        outputs = compiled.output_qubits
        compacted, used = decoy.circuit.compact()
        tableau = _marginal(
            StabilizerSimulator().probabilities(compacted).items(), used, outputs
        )
        dense = StatevectorSimulator().probabilities(compacted)
        statevector = _marginal(
            (
                (format(index, f"0{compacted.num_qubits}b"), float(p))
                for index, p in enumerate(dense)
                if p > 1e-12
            ),
            used,
            outputs,
        )
        assert tableau != statevector
        assert list(decoy.ideal_distribution(outputs).items()) == tableau
        assert list(ideal_distribution(decoy.circuit, outputs, DECOY_TIERS).items()) == tableau
        assert (
            list(ideal_distribution(decoy.circuit, outputs, PROGRAM_TIERS).items())
            == statevector
        )

    def test_wide_seeded_decoy_is_refused_with_its_width(self):
        circuit = QuantumCircuit(20)
        circuit.t(0)
        circuit.h(0)
        for qubit in range(19):
            circuit.cx(qubit, qubit + 1)
        circuit.measure_all()
        decoy = seeded_decoy(circuit)
        assert decoy.num_non_clifford == 1
        with pytest.raises(ValueError, match="20-qubit"):
            decoy.ideal_distribution(range(20))


class TestSearch:
    def test_all_assignments_count(self):
        assert len(all_assignments([1, 2, 3])) == 8

    def test_localized_search_is_linear_in_qubits(self):
        search = LocalizedSearch(group_size=4)
        assert search.expected_evaluations(8) == 32
        assert search.expected_evaluations(10) == 2 * 16 + 4
        calls = []

        def score(assignments):
            calls.extend(assignments)
            return [0.5] * len(assignments)

        search.run(range(8), score)
        assert len(calls) == 32

    def test_localized_search_recovers_clear_optimum(self):
        beneficial = {0, 2, 5}

        def score(assignments):
            return [
                sum(1 for q in a.qubits if q in beneficial)
                - 2 * sum(1 for q in a.qubits if q not in beneficial)
                for a in assignments
            ]

        result = LocalizedSearch(group_size=4, top_k_union=1).run(range(8), score)
        assert result.best.qubits == frozenset(beneficial)

    def test_top2_union_is_conservative(self):
        # Scores are designed so the two best group choices are {0} and {1}:
        # the union {0,1} must be selected (the paper's "1001"+"1011" rule).
        scores = {frozenset(): 0.0, frozenset({0}): 1.0, frozenset({1}): 0.9, frozenset({0, 1}): 0.5}

        def score(assignments):
            return [scores[frozenset(a.qubits)] for a in assignments]

        result = LocalizedSearch(group_size=2, top_k_union=2).run([0, 1], score)
        assert result.best.qubits == frozenset({0, 1})

    def test_grouping_by_idle_time(self):
        search = LocalizedSearch(group_size=2)
        groups = search.group_qubits([0, 1, 2, 3], idle_time={0: 1.0, 1: 10.0, 2: 5.0, 3: 0.1})
        assert groups[0] == [1, 2]
        assert groups[1] == [0, 3]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LocalizedSearch(group_size=0)
        with pytest.raises(ValueError):
            LocalizedSearch(top_k_union=0)


class TestAdaptAndPolicies:
    def test_adapt_select_returns_valid_assignment(self, rome_backend_module, rome_executor_module):
        compiled = transpile(qft_benchmark(4, "A"), rome_backend_module)
        adapt = Adapt(
            rome_executor_module,
            config=AdaptConfig(decoy_shots=512, group_size=2),
            seed=3,
        )
        result = adapt.select(compiled)
        program_qubits = set(compiled.gst.active_qubits())
        assert set(result.assignment.qubits) <= program_qubits
        assert result.num_decoy_evaluations <= 4 * len(program_qubits)
        assert len(result.bitstring) == len(program_qubits)

    def test_adapt_apply_produces_dd_circuit(self, rome_backend_module, rome_executor_module):
        compiled = transpile(qft_benchmark(4, "A"), rome_backend_module)
        adapt = Adapt(rome_executor_module, config=AdaptConfig(decoy_shots=256, group_size=2), seed=3)
        circuit = adapt.apply(compiled)
        assert any(g.is_dd_pulse for g in circuit) or len(adapt.select(compiled).assignment) == 0

    def test_no_dd_and_all_dd_policies(self, compiled_adder):
        none = NoDDPolicy().decide(compiled_adder)
        everything = AllDDPolicy().decide(compiled_adder)
        assert len(none.assignment) == 0
        assert set(everything.assignment.qubits) == set(compiled_adder.gst.active_qubits())

    def test_runtime_best_policy_beats_or_matches_no_dd(self, compiled_adder, rome_executor_module):
        policy = RuntimeBestPolicy(
            rome_executor_module,
            shots=512,
            max_exhaustive_qubits=2,
            max_evaluations=6,
            seed=5,
        )
        decision = policy.decide(compiled_adder)
        assert decision.num_evaluations >= 2
        assert "best_score" in decision.metadata

    def test_runtime_best_scores_everything_when_the_budget_exceeds_the_space(
        self, rome_executor_module
    ):
        policy = RuntimeBestPolicy(
            rome_executor_module,
            max_exhaustive_qubits=2,
            max_evaluations=64,
            seed=5,
        )

        class BoundedRng:
            """Fails instead of hanging if candidate sampling never ends."""

            def __init__(self, rng):
                self.rng, self.draws = rng, 0

            def integers(self, *args, **kwargs):
                self.draws += 1
                assert self.draws < 10_000, "candidate sampling did not terminate"
                return self.rng.integers(*args, **kwargs)

        policy._rng = BoundedRng(policy._rng)
        candidates = policy._candidate_assignments([0, 1, 2])
        assert len(candidates) == 8
        assert len({c.qubits for c in candidates}) == 8

    def test_standard_policies_composition(self, rome_executor_module):
        policies = standard_policies(rome_executor_module)
        names = [policy.name for policy in policies]
        assert names == ["no_dd", "all_dd", "adapt", "runtime_best"]
        no_rtb = standard_policies(rome_executor_module, include_runtime_best=False)
        assert [p.name for p in no_rtb] == ["no_dd", "all_dd", "adapt"]
        # Both scoring policies rank under the ADAPT config's protocol and engine.
        config = AdaptConfig(dd_sequence="ibmq_dd", engine="density_matrix")
        *_, adapt, oracle = standard_policies(
            rome_executor_module, adapt_config=config, max_evaluations=5
        )
        assert adapt.adapt.config is config
        assert (oracle.dd_sequence, oracle.engine) == ("ibmq_dd", "density_matrix")
        assert oracle.max_evaluations == 5


class TestEvaluation:
    def test_logical_and_compiled_ideal_distributions_agree(self, rome_backend_module):
        circuit = bernstein_vazirani(4)
        compiled = transpile(circuit, rome_backend_module)
        logical = logical_ideal_distribution(circuit)
        physical = compiled_ideal_distribution(compiled)
        assert logical == pytest.approx(physical, abs=1e-9)

    def test_evaluate_policies_produces_relative_fidelities(
        self, rome_backend_module, rome_executor_module
    ):
        compiled = transpile(bernstein_vazirani(4), rome_backend_module)
        policies = [NoDDPolicy(), AllDDPolicy()]
        evaluation = evaluate_policies(
            compiled, policies, rome_executor_module, shots=1024, benchmark_name="BV-4"
        )
        assert evaluation.benchmark == "BV-4"
        assert evaluation.baseline_fidelity > 0
        assert evaluation.outcomes["no_dd"].relative_fidelity == pytest.approx(1.0)
        assert set(evaluation.as_row()) >= {"benchmark", "no_dd_fidelity", "all_dd_relative"}
        assert evaluation.best_policy() in ("no_dd", "all_dd")

    def test_summarize_relative_fidelity(self, rome_backend_module, rome_executor_module):
        compiled = transpile(bernstein_vazirani(4), rome_backend_module)
        policies = [NoDDPolicy(), AllDDPolicy()]
        evaluations = [
            evaluate_policies(compiled, policies, rome_executor_module, shots=512)
            for _ in range(2)
        ]
        summary = summarize_relative_fidelity(evaluations, "all_dd")
        assert summary["min"] <= summary["gmean"] <= summary["max"]
        with pytest.raises(ValueError):
            summarize_relative_fidelity(evaluations, "nonexistent")

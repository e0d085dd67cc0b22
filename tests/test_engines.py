"""Engine-registry tests: selection policy, equivalence matrix, compile cache,
and the derived forms of resolved operators.

The matrix test enforces the contract of ``docs/architecture.md``: every
registered engine must agree with the dense density-matrix reference on small
seeded programs, and the sequential facade, the batched path and any
``memory_budget_bytes`` sub-batch split must be bit-identical.
"""

import math

import numpy as np
import pytest

import repro.hardware.program as program_module
import repro.simulators.engines as engines_module
from oracle import DensityMatrixSimulator
from repro.circuits import QuantumCircuit
from repro.circuits.gates import gate_matrix, rx_matrix, rz_matrix
from repro.dd import DDAssignment
from repro.hardware import BatchJob, NoisyExecutor, ProgramCache
from repro.hardware.program import mixed_unitary_form
from repro.metrics import fidelity
from repro.noise import NoiseOp
from repro.simulators import SimulationError, available_engines, get_engine, select_engine
from repro.simulators import channels
from repro.simulators.engines import EngineJob, pauli_twirl_probabilities
from repro.transpiler import transpile
from repro.workloads.suite import get_benchmark

TRAJECTORIES = 200

#: Per-engine fidelity floor against the dense density-matrix reference.
#: The DM engine is the reference itself; trajectories are Monte-Carlo
#: (finite-sample error); the stabilizer fast path Pauli-twirls coherent
#: rotations (model error bounded and small on these programs); the frame
#: engine samples the same twirled model with TRAJECTORIES frames
#: (Monte-Carlo error on top of the twirl).
ENGINE_TOLERANCE = {
    "density_matrix": 1.0 - 1e-12,
    "trajectories": 0.94,
    "stabilizer": 0.995,
    "stabilizer_frames": 0.93,
}


def clifford_probe(num_qubits=5, idle_qubit=0, cnot_link=(1, 3), repetitions=10):
    """An idle-qubit probe built only from stabilizer-supported gates."""
    circuit = QuantumCircuit(num_qubits)
    circuit.h(idle_qubit)
    circuit.barrier(idle_qubit, *cnot_link)
    for _ in range(repetitions):
        circuit.cx(*cnot_link)
    circuit.barrier(idle_qubit, *cnot_link)
    circuit.h(idle_qubit)
    circuit.measure(idle_qubit)
    circuit.measure(cnot_link[0])
    return circuit


def one_qubit_rotations():
    """One active qubit, so every op spans the whole active space."""
    return QuantumCircuit(1).rz(0.3, 0).sx(0).rz(1.1, 0).sx(0).measure_all()


def two_qubit_rotations():
    """Two active qubits, so a CX (and its noise) spans the whole active space."""
    circuit = QuantumCircuit(2).rz(0.1, 0).sx(0).rz(1.1, 0).sx(0)
    return circuit.cx(0, 1).rz(0.1, 1).sx(1).measure_all()


ASSIGNMENTS = [DDAssignment.none(), DDAssignment.all([0]), DDAssignment.all([0, 1, 3])]
SEEDS = [11, 22, 33]

#: Inputs of the bit-identity test: the Clifford probe for every engine, plus
#: non-Clifford programs whose ops span the whole active space (on Rome, where
#: batched and single dense contractions of them once rounded differently).
BIT_IDENTITY_CASES = [
    pytest.param(engine, "london_backend", clifford_probe, id=engine)
    for engine in sorted(ENGINE_TOLERANCE)
] + [
    pytest.param(engine, "rome_backend", build, id=f"{engine}-{build.__name__}")
    for engine in ("density_matrix", "trajectories")
    for build in (one_qubit_rotations, two_qubit_rotations)
]


def program_and_variants(backend, workload):
    """A compiled benchmark and the xy4 window variants of three DD subsets:
    none, every other active qubit, and all active qubits."""
    compiled = transpile(get_benchmark(workload).build(), backend)
    program = NoisyExecutor(backend).compile(compiled.physical_circuit, compiled.gst)
    active = sorted(compiled.gst.active_qubits())
    assignments = [DDAssignment.none(), DDAssignment.all(active[::2]), DDAssignment.all(active)]
    return program, [program.assignment_variants(a, "xy4") for a in assignments]


class TestRegistry:
    def test_default_engines_registered(self):
        names = available_engines()
        assert {
            "density_matrix",
            "trajectories",
            "stabilizer",
            "stabilizer_frames",
        } <= set(names)

    def test_unknown_engine_error_lists_registered_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_engine("magic")
        message = str(excinfo.value)
        for name in available_engines():
            assert name in message

    def test_select_engine_validates_explicit_names(self):
        with pytest.raises(ValueError, match="registered engines"):
            select_engine("magic", 4)

    def test_auto_policy(self):
        assert select_engine("auto", 4) == "density_matrix"
        assert select_engine("auto", 11) == "trajectories"
        assert select_engine("auto", 4, clifford=True) == "stabilizer"
        # The Clifford fast path yields beyond its convolution limit.
        assert select_engine("auto", 13, clifford=True) == "trajectories"
        assert select_engine("density_matrix", 99) == "density_matrix"

    def test_executor_rejects_unknown_engine_with_names(self, london_executor):
        circuit = QuantumCircuit(5).x(0).measure(0)
        with pytest.raises(ValueError, match="registered engines"):
            london_executor.run(circuit, engine="magic")


class TestEngineMatrix:
    """Every registered engine against the dense density-matrix reference."""

    @pytest.fixture(scope="class")
    def reference(self, london_backend):
        executor = NoisyExecutor(london_backend, trajectories=TRAJECTORIES)
        circuit = clifford_probe()
        return {
            seed: executor.run(
                circuit,
                dd_assignment=assignment,
                shots=600,
                seed=seed,
                engine="density_matrix",
            )
            for assignment, seed in zip(ASSIGNMENTS, SEEDS)
        }

    @pytest.mark.parametrize("engine", sorted(ENGINE_TOLERANCE))
    def test_engine_matches_dense_reference(self, london_backend, reference, engine):
        executor = NoisyExecutor(london_backend, trajectories=TRAJECTORIES)
        circuit = clifford_probe()
        for assignment, seed in zip(ASSIGNMENTS, SEEDS):
            result = executor.run(
                circuit, dd_assignment=assignment, shots=600, seed=seed, engine=engine
            )
            assert result.engine == engine
            assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)
            score = fidelity(reference[seed].probabilities, result.probabilities)
            assert score >= ENGINE_TOLERANCE[engine], (
                f"engine '{engine}' diverges from the DM reference: fidelity {score}"
            )

    @pytest.mark.parametrize("engine, backend_fixture, build", BIT_IDENTITY_CASES)
    def test_sequential_batch_and_split_are_bit_identical(
        self, request, engine, backend_fixture, build
    ):
        """NoisyExecutor.run == one batch == any memory-budget sub-batching."""
        backend = request.getfixturevalue(backend_fixture)
        circuit = build()
        batch = NoisyExecutor(backend, trajectories=40)
        # A budget of one byte forces a sub-batch split into batches of one.
        split = NoisyExecutor(backend, trajectories=40, memory_budget_bytes=1)
        batched = batch.run_assignments(
            circuit, ASSIGNMENTS, shots=500, seeds=SEEDS, engine=engine
        )
        splitted = split.run_assignments(
            circuit, ASSIGNMENTS, shots=500, seeds=SEEDS, engine=engine
        )
        for assignment, seed, from_batch, from_split in zip(
            ASSIGNMENTS, SEEDS, batched, splitted
        ):
            # One executor per single run: on a shared one, a run whose variants
            # repeat an earlier run's would read that run's memoized vector.
            reference = NoisyExecutor(backend, trajectories=40).run(
                circuit, dd_assignment=assignment, shots=500, seed=seed, engine=engine
            )
            expected = [(k, v.hex()) for k, v in reference.probabilities.items()]
            for result in (from_batch, from_split):
                assert result.counts == reference.counts
                assert result.dd_pulse_count == reference.dd_pulse_count
                assert [(k, v.hex()) for k, v in result.probabilities.items()] == expected


class TestDenseEngineOracle:
    """The batched superoperator engine against the one-state Kraus oracle."""

    @pytest.mark.parametrize(
        "backend_fixture, workload",
        [
            ("rome_backend", "BV-4"),
            ("rome_backend", "ADDER-4"),
            ("rome_backend", "GHZ:4"),
            ("guadalupe_backend", "QFT-5"),
        ],
    )
    def test_engine_matches_kraus_replay(self, request, backend_fixture, workload):
        program, variants = program_and_variants(
            request.getfixturevalue(backend_fixture), workload
        )
        # One batch of differing variants, so rows split at their windows.
        batch = get_engine("density_matrix").run(
            program, [EngineJob(variants=v) for v in variants], 1
        )
        for job_variants, probs in zip(variants, batch):
            reference = DensityMatrixSimulator(program.num_active)
            for kind, payload in program.template:
                if kind == "op":
                    ops = [payload]
                else:
                    ops = program.window_ops(payload, job_variants[payload])
                for op in ops:
                    reference.apply_kraus(op.kraus, op.positions)
            assert np.max(np.abs(probs - reference.probabilities())) <= 1e-12


class TestDenseRowSharing:
    """The dense engine keeps one state row per distinct variant history."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_contraction_is_row_invariant(self, k):
        """A row's contraction bits do not depend on the rows stacked with it.

        Sharing rows across jobs is bit-exact only because of this; a BLAS
        whose kernels break it fails here rather than as drifting records.
        """
        rng = np.random.default_rng(k)
        for n in range(k + 1, 7):
            shape = (2,) * (4 * k)
            superop = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            positions = [int(p) for p in rng.choice(n, size=k, replace=False)]
            legs = [1 + p for p in positions] + [1 + n + p for p in positions]
            for R in (1, 2, 3, 5, 8):
                state = rng.normal(size=(R,) + (2,) * (2 * n)) + 0j
                state += 1j * rng.normal(size=state.shape)
                # The raw stack, then the transposed view a contraction returns
                # (the layout the engine feeds to the next op).
                for _ in range(2):
                    stacked = engines_module._apply_operator(state, superop, legs)
                    for r in range(R):
                        alone = engines_module._apply_operator(state[r : r + 1], superop, legs)
                        assert np.array_equal(stacked[r], alone[0])
                    subset = rng.permutation(R)[: max(1, R // 2)]
                    gathered = engines_module._apply_operator(state[subset], superop, legs)
                    for i, r in enumerate(subset):
                        assert np.array_equal(gathered[i], stacked[r])
                    state = stacked

    @staticmethod
    def _spy_rows(monkeypatch):
        """Record the row count of every contraction the engine makes."""
        rows = []
        original = engines_module._apply_operator

        def spy(state, op_tensor, leg_axes):
            rows.append(state.shape[0])
            return original(state, op_tensor, leg_axes)

        monkeypatch.setattr(engines_module, "_apply_operator", spy)
        return rows

    def test_identical_variants_share_one_row(self, rome_backend, monkeypatch):
        """The served shape: a batch carrying no DD runs on one row."""
        program, variants = program_and_variants(rome_backend, "ADDER-4")
        rows = self._spy_rows(monkeypatch)
        results = get_engine("density_matrix").run(
            program, [EngineJob(variants=variants[0]) for _ in range(8)], 1
        )
        assert rows and set(rows) == {1}
        assert len(results) == 8
        assert all(np.array_equal(result, results[0]) for result in results)

    def test_rows_never_exceed_distinct_histories(self, guadalupe_backend, monkeypatch):
        program, variants = program_and_variants(guadalupe_backend, "QFT-5")
        distinct = len({tuple(v) for v in variants})
        assert distinct > 1
        engine = get_engine("density_matrix")
        alone = [engine.run(program, [EngineJob(variants=v)], 1)[0] for v in variants]
        rows = self._spy_rows(monkeypatch)
        batch = engine.run(program, [EngineJob(variants=v) for v in variants * 2], 1)
        first_window = next(
            i for i, (kind, _) in enumerate(program.template) if kind == "window"
        )
        assert rows[:first_window] == [1] * first_window
        assert max(rows) <= distinct
        for j, probs in enumerate(batch):
            assert np.array_equal(probs, alone[j % len(variants)])


class TestStabilizerEngine:
    def test_explicit_stabilizer_rejects_non_clifford(self, london_executor):
        circuit = QuantumCircuit(5).ry(0.3, 0).measure(0)
        with pytest.raises(SimulationError, match="Clifford"):
            london_executor.run(circuit, engine="stabilizer")

    def test_auto_picks_stabilizer_for_transpiled_clifford(self, rome_backend):
        from repro.transpiler import transpile
        from repro.workloads import bernstein_vazirani

        compiled = transpile(bernstein_vazirani(4), rome_backend)
        executor = NoisyExecutor(rome_backend, trajectories=30)
        result = executor.run(
            compiled.physical_circuit,
            shots=400,
            output_qubits=compiled.output_qubits,
            gst=compiled.gst,
            seed=1,
        )
        assert result.engine == "stabilizer"

    def test_stabilizer_is_deterministic_given_seed(self, london_backend):
        circuit = clifford_probe()
        # Two executors, so both runs reach the engine: on one, the second
        # run would read the first's memoized vector.
        first = NoisyExecutor(london_backend).run(circuit, shots=300, seed=9, engine="stabilizer")
        second = NoisyExecutor(london_backend).run(circuit, shots=300, seed=9, engine="stabilizer")
        assert first.counts == second.counts
        assert first.probabilities == second.probabilities

    def test_dd_improves_crosstalk_limited_clifford_probe(self, london_backend):
        circuit = clifford_probe(repetitions=18)
        executor = NoisyExecutor(london_backend)
        free = executor.run(circuit, shots=4000, seed=4, engine="stabilizer")
        protected = executor.run(
            circuit,
            dd_assignment=DDAssignment.all([0]),
            shots=4000,
            seed=4,
            engine="stabilizer",
        )
        assert protected.probability_of("00") > free.probability_of("00")

    def test_pauli_twirl_is_exact_for_pauli_channels(self):
        probs, xbits, zbits = pauli_twirl_probabilities(channels.depolarizing(0.3))
        assert probs.sum() == pytest.approx(1.0)
        assert probs[0] == pytest.approx(0.7)
        assert np.allclose(probs[1:], 0.1)
        # Phase damping is a Z-diagonal channel: its twirl is a phase flip.
        lam = 0.4
        probs, xbits, zbits = pauli_twirl_probabilities(channels.phase_damping(lam))
        flip = (1.0 - math.sqrt(1.0 - lam)) / 2.0
        assert len(probs) == 2
        assert probs[1] == pytest.approx(flip)
        assert not xbits.any()  # no X component: diagonal channels never flip bits

    def test_twirl_probabilities_are_valid_for_amplitude_damping(self):
        probs, _, _ = pauli_twirl_probabilities(channels.amplitude_damping(0.25))
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()


class TestCompileCache:
    def test_repeated_runs_hit_the_cache(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=0)
        circuit = clifford_probe()
        executor.run(circuit, shots=64)
        assert executor.stats["program_compiles"] == 1
        assert executor.stats["program_hits"] == 0
        executor.run(circuit, dd_assignment=DDAssignment.all([0]), shots=64)
        executor.run(circuit, shots=64, engine="density_matrix")
        assert executor.stats["program_compiles"] == 1
        assert executor.stats["program_hits"] == 2

    def test_cache_keyed_by_gst_variant(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=0)
        circuit = clifford_probe()
        gst = london_backend.schedule(circuit)
        executor.run(circuit, shots=64)
        executor.run(circuit, shots=64, gst=gst)
        # Different (circuit, gst) key -> separate compile, then a hit.
        assert executor.stats["program_compiles"] == 2
        executor.run(circuit, shots=64, gst=gst)
        assert executor.stats["program_hits"] == 1

    def test_cache_detects_circuit_mutation(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=0)
        circuit = QuantumCircuit(5).h(0).measure(0)
        executor.run(circuit, shots=64)
        circuit.x(1)
        circuit.measure(1)
        result = executor.run(circuit, shots=64)
        assert executor.stats["program_compiles"] == 2
        assert result.most_probable() == "01"

    def test_cache_eviction_respects_capacity(self, london_backend):
        cache = ProgramCache(london_backend, max_entries=2)
        circuits = [QuantumCircuit(5).x(q).measure(q) for q in range(3)]
        for circuit in circuits:
            cache.get(circuit)
        assert len(cache.entries) == 2
        assert cache.get(circuits[2])[1] and not cache.get(circuits[0])[1]

    def test_batch_executor_shares_the_same_cache_machinery(self, london_backend):
        batch = NoisyExecutor(london_backend)
        circuit = clifford_probe()
        batch.run_batch(circuit, [BatchJob(shots=32, seed=1)])
        batch.run_batch(circuit, [BatchJob(shots=32, seed=2)])
        assert batch.stats["program_compiles"] == 1
        assert batch.stats["program_hits"] == 1


class TestMemoryBudgetSelection:
    """Active-space memory budgeting threaded through select_engine."""

    def test_no_budget_preserves_nominal_policy(self):
        assert select_engine("auto", 9) == "density_matrix"
        assert select_engine("auto", 20) == "trajectories"
        assert select_engine("auto", 20, clifford=True) == "trajectories"
        assert select_engine("auto", 8, clifford=True) == "stabilizer"

    def test_dense_state_over_budget_degrades_to_trajectories(self):
        # 10 active qubits: the dm state is 16 * 4^10 = 16 MiB.
        name = select_engine(
            "auto", 10, memory_budget_bytes=1024 * 1024, trajectories=4
        )
        assert name == "trajectories"

    def test_large_clifford_program_rides_stabilizer_beyond_auto_limit(self):
        # 20 active qubits: one trajectory stack is 16 * 100 * 2^20 = 1.6 GiB,
        # but the stabilizer spectrum is only 8 * 2^20 = 8 MiB.
        name = select_engine(
            "auto", 20, clifford=True,
            memory_budget_bytes=256 * 1024 * 1024, trajectories=100,
        )
        assert name == "stabilizer"
        # A measurement context never takes the twirled path.
        dense = select_engine(
            "auto_dense", 20, clifford=True,
            memory_budget_bytes=256 * 1024 * 1024, trajectories=100,
        )
        assert dense == "trajectories"

    def test_nothing_fits_keeps_preferred_engine(self):
        name = select_engine("auto", 30, memory_budget_bytes=1024, trajectories=100)
        assert name == "trajectories"

    def test_executors_share_the_budget_default(self):
        from repro.hardware import DEFAULT_MEMORY_BUDGET_BYTES, Backend

        executor = NoisyExecutor(Backend.from_name("ibmq_rome"))
        assert executor.memory_budget_bytes == DEFAULT_MEMORY_BUDGET_BYTES


#: Noise ops resolved on active-space positions equal to their qubits:
#: (op, expected Kraus list, expected kind).
NOISE_CASES = {
    "depolarizing": (
        NoiseOp("kraus", (0,), channels.depolarizing(0.02)),
        channels.depolarizing(0.02),
        "kraus",
    ),
    "depolarizing_two_qubit": (
        NoiseOp("kraus", (0, 1), channels.depolarizing_two_qubit(0.03)),
        channels.depolarizing_two_qubit(0.03),
        "kraus",
    ),
    "amplitude_damping": (
        NoiseOp("kraus", (0,), channels.amplitude_damping(0.1)),
        channels.amplitude_damping(0.1),
        "kraus",
    ),
    "identity_kraus": (NoiseOp("kraus", (0,), [np.eye(2)]), [np.eye(2)], "unitary"),
    "rz": (NoiseOp("rz", (0,), 0.3), [rz_matrix(0.3)], "unitary"),
    "rx": (NoiseOp("rx", (0,), 0.2), [rx_matrix(0.2)], "unitary"),
    "gaussian_phase": (
        NoiseOp("gaussian_phase", (0,), 0.25),
        channels.phase_damping(1.0 - math.exp(-(0.25 ** 2))),
        "gaussian",
    ),
}


class TestResolvedOps:
    """A resolved op keeps its Kraus list; every other form is derived from it
    on first read, by the engine that reads it."""

    @staticmethod
    def _resolved(case, london_backend):
        if case == "gate_event":
            executor = NoisyExecutor(london_backend)
            program = executor.compile(clifford_probe())
            op = next(
                payload
                for kind, payload in program.template
                if kind == "op" and payload.gate is not None and payload.gate.name == "cx"
            )
            return op, [gate_matrix("cx")], "unitary"
        noise, kraus, kind = NOISE_CASES[case]
        op = program_module._resolve_noise_op(noise, {q: q for q in noise.qubits})
        return op, kraus, kind

    @pytest.mark.parametrize("case", sorted(NOISE_CASES) + ["gate_event"])
    def test_derived_forms_equal_their_formulas(self, london_backend, monkeypatch, case):
        monkeypatch.setattr(program_module, "_RESOLVED_OP_CACHE", {})
        op, kraus, kind = self._resolved(case, london_backend)
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        k = len(op.positions)
        legs = (2,) * (2 * k)

        assert op.kind == kind
        assert op.std == (op.noise.payload if kind == "gaussian" else None)
        assert len(op.kraus) == len(kraus)
        assert all(np.array_equal(a, b) for a, b in zip(op.kraus, kraus))

        superop = sum(np.kron(K, K.conj()) for K in kraus)
        assert np.array_equal(op.superop, superop.reshape((2,) * (4 * k)))
        if kind == "unitary":
            assert np.array_equal(op.tensor, kraus[0].reshape(legs))
        assert np.array_equal(op.kraus_stack, np.stack([K.reshape(legs) for K in kraus]))

        mixed = mixed_unitary_form(kraus)
        if mixed is None:
            assert op.mixed is None
        else:
            cumulative, unitaries = op.mixed
            assert np.array_equal(cumulative, np.cumsum(mixed[0]))
            assert len(unitaries) == len(mixed[1])
            for got, want in zip(unitaries, mixed[1]):
                assert (got is None) == (want is None)
                if want is not None:
                    assert np.array_equal(got, want.reshape(legs))
        if case == "amplitude_damping":
            assert op.mixed is None  # T1 decay is not a mixed-unitary channel

        for got, want in zip(op.twirl, pauli_twirl_probabilities(kraus)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("engine", ["stabilizer", "stabilizer_frames"])
    def test_clifford_engines_never_build_dense_forms(self, london_backend, monkeypatch, engine):
        # Resolved noise ops are shared process-wide: start from an empty memo
        # so no earlier dense run has already built their forms.
        monkeypatch.setattr(program_module, "_RESOLVED_OP_CACHE", {})
        executor = NoisyExecutor(london_backend, trajectories=40)
        circuit = clifford_probe()
        executor.run_assignments(circuit, ASSIGNMENTS, shots=200, seeds=SEEDS, engine=engine)

        (program,) = executor._programs.values()
        template_ops = [payload for kind, payload in program.template if kind == "op"]
        window_ops = [op for ops in program._window_ops.values() for op in ops]
        assert window_ops
        for op in template_ops:
            built = set(vars(op))
            assert not built & {"superop", "tensor", "kraus_stack", "mixed"}
            if op.noise is not None:
                assert "twirl" in built
        # Window ops are twirled in one batched pass that memoizes no form
        # on the op at all.
        for op in window_ops:
            assert not set(vars(op)) & {"superop", "tensor", "kraus_stack", "mixed", "twirl"}

        executor.run_assignments(
            circuit, ASSIGNMENTS, shots=200, seeds=SEEDS, engine="density_matrix"
        )
        assert all("superop" in vars(op) for op in template_ops)

"""Tests for the noisy executor: engines, DD interaction, output mapping."""

import math

import pytest

from repro.circuits import QuantumCircuit
from repro.dd import DDAssignment, plan_dd
from repro.hardware import BatchJob, NoisyExecutor
from repro.metrics import fidelity
from repro.simulators import SimulationError, available_engines, get_engine
from repro.simulators.engines import EngineJob
from repro.transpiler import transpile
from repro.workloads.suite import get_benchmark


def probe_circuit(num_qubits, idle_qubit, theta, cnot_link, repetitions):
    circuit = QuantumCircuit(num_qubits)
    circuit.ry(theta, idle_qubit)
    circuit.barrier(idle_qubit, *cnot_link)
    for _ in range(repetitions):
        circuit.cx(*cnot_link)
    circuit.barrier(idle_qubit, *cnot_link)
    circuit.ry(-theta, idle_qubit)
    circuit.measure(idle_qubit)
    return circuit


class TestBasics:
    def test_counts_sum_to_shots(self, london_executor):
        circuit = QuantumCircuit(5).h(0).cx(0, 1).measure(0).measure(1)
        result = london_executor.run(circuit, shots=500)
        assert sum(result.counts.values()) == 500
        assert result.shots == 500

    def test_probabilities_normalised(self, london_executor):
        circuit = QuantumCircuit(5).h(0).cx(0, 1).measure_all()
        result = london_executor.run(circuit, shots=256)
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_output_defaults_to_measured_qubits(self, london_executor):
        circuit = QuantumCircuit(5).x(3).measure(3)
        result = london_executor.run(circuit, shots=128)
        assert result.output_qubits == (3,)
        assert result.probabilities.get("1", 0) > 0.8

    def test_output_qubit_order_is_respected(self, london_executor):
        circuit = QuantumCircuit(5).x(1).measure(1).measure(2)
        forward = london_executor.run(circuit, output_qubits=[1, 2], shots=128)
        reverse = london_executor.run(circuit, output_qubits=[2, 1], shots=128)
        assert forward.most_probable() == "10"
        assert reverse.most_probable() == "01"

    def test_unknown_output_qubit_rejected(self, london_executor):
        circuit = QuantumCircuit(5).x(0).measure(0)
        with pytest.raises(SimulationError):
            london_executor.run(circuit, output_qubits=[4])

    def test_unknown_engine_rejected(self, london_executor):
        circuit = QuantumCircuit(5).x(0).measure(0)
        with pytest.raises(ValueError):
            london_executor.run(circuit, engine="magic")

    def test_unknown_dd_protocol_fails_before_any_engine_run(
        self, london_backend, monkeypatch
    ):
        # A one-byte budget gives every job its own sub-batch: the first job's
        # engine would run before the bad job's sub-batch is reached.
        calls = []
        for name in available_engines():
            engine_class = type(get_engine(name))

            def spy(self, *args, _run=engine_class.run, **kwargs):
                calls.append(self.name)
                return _run(self, *args, **kwargs)

            monkeypatch.setattr(engine_class, "run", spy)
        executor = NoisyExecutor(london_backend, memory_budget_bytes=1)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 6)
        jobs = [
            BatchJob(seed=1, dd_assignment=DDAssignment.all([0])),
            BatchJob(seed=2, dd_assignment=DDAssignment.all([0]), dd_sequence="nope"),
        ]
        with pytest.raises(KeyError, match="unknown DD sequence 'nope'"):
            executor.run_batch(circuit, jobs)
        assert calls == []

    def test_only_active_qubits_simulated(self, toronto_backend):
        executor = NoisyExecutor(toronto_backend, seed=0)
        circuit = QuantumCircuit(27).h(0).cx(0, 1).measure(0).measure(1)
        result = executor.run(circuit, shots=128)
        assert result.num_active_qubits == 2

    def test_metadata_reports_device_and_dd(self, london_executor):
        circuit = QuantumCircuit(5).h(0).measure(0)
        result = london_executor.run(circuit, shots=64)
        assert result.metadata["device"] == "ibmq_london"
        assert result.metadata["dd_sequence"] == "xy4"
        assert result.engine in ("density_matrix", "trajectories", "stabilizer")

    def test_bell_correlations_survive_noise(self, london_executor):
        circuit = QuantumCircuit(5).h(0).cx(0, 1).measure(0).measure(1)
        result = london_executor.run(circuit, shots=2000)
        correlated = result.probability_of("00") + result.probability_of("11")
        assert correlated > 0.85


class TestNoiseEffects:
    def test_noise_lowers_fidelity_vs_ideal(self, london_executor):
        circuit = QuantumCircuit(5)
        for _ in range(6):
            circuit.cx(0, 1)
        circuit.measure(0)
        circuit.measure(1)
        result = london_executor.run(circuit, shots=4000)
        assert result.probability_of("00") < 0.999
        assert result.probability_of("00") > 0.5

    def test_crosstalk_hurts_spectator(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=11)
        short = probe_circuit(5, 0, math.pi / 2, (1, 3), 3)
        long = probe_circuit(5, 0, math.pi / 2, (1, 3), 18)
        fidelity_short = executor.run(short, shots=2000).probability_of("0")
        fidelity_long = executor.run(long, shots=2000).probability_of("0")
        assert fidelity_long < fidelity_short

    def test_dd_improves_crosstalk_limited_probe(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=11)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 18)
        free = executor.run(circuit, shots=3000).probability_of("0")
        protected = executor.run(
            circuit, dd_assignment=DDAssignment.all([0]), shots=3000
        ).probability_of("0")
        assert protected > free

    def test_dd_pulse_count_reported(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=11)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 18)
        result = executor.run(circuit, dd_assignment=DDAssignment.all([0]), shots=64)
        assert result.dd_pulse_count > 0
        baseline = executor.run(circuit, shots=64)
        assert baseline.dd_pulse_count == 0

    @pytest.mark.parametrize("workload", ["BV-7", "QFT-6A", "QFT-6B", "QAOA-8A", "QPEA-5"])
    def test_dd_accounting_matches_plan_dd(self, toronto_backend, workload):
        # The executor counts pulses and protected windows from its own
        # memoized trains; they must equal the plan that builds the DD circuit.
        compiled = transpile(get_benchmark(workload).build(), toronto_backend)
        active = sorted(compiled.gst.active_qubits())
        assignments = [
            DDAssignment.none(),
            DDAssignment.all(active[::2]),
            DDAssignment.all(active),
        ]
        executor = NoisyExecutor(toronto_backend)
        for protocol in ("xy4", "ibmq_dd"):
            results = executor.run_assignments(
                compiled.physical_circuit,
                assignments,
                dd_sequence=protocol,
                shots=16,
                output_qubits=compiled.output_qubits,
                gst=compiled.gst,
                seeds=[1, 2, 3],
            )
            for assignment, result in zip(assignments, results):
                plan = plan_dd(compiled.gst, assignment, protocol)
                assert result.dd_pulse_count == plan.total_pulses
                assert result.metadata["protected_windows"] == plan.num_protected_windows
            assert results[2].dd_pulse_count > 0

    def test_polar_state_immune_to_dephasing(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=11)
        # theta = 0: the qubit stays in |0>, so crosstalk dephasing barely
        # matters and only T1/readout errors remain.
        circuit = probe_circuit(5, 0, 0.0, (1, 3), 18)
        result = executor.run(circuit, shots=3000)
        assert result.probability_of("0") > 0.9


class TestEngines:
    def test_engine_selection_auto(self, london_executor):
        # Clifford-only circuits take the stabilizer fast path under "auto"...
        clifford = QuantumCircuit(5).h(0).measure(0)
        assert london_executor.run(clifford, shots=32).engine == "stabilizer"
        # ...while anything non-Clifford falls back to the dense engines.
        generic = QuantumCircuit(5).ry(0.3, 0).measure(0)
        assert london_executor.run(generic, shots=32).engine == "density_matrix"

    def test_engines_agree_on_distribution(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=29, trajectories=400)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 8)
        dm = executor.run(circuit, shots=4000, engine="density_matrix")
        mc = executor.run(circuit, shots=4000, engine="trajectories")
        assert fidelity(dm.probabilities, mc.probabilities) > 0.95

    def test_trajectory_engine_handles_dd(self, london_backend):
        executor = NoisyExecutor(london_backend, seed=29, trajectories=150)
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 12)
        result = executor.run(
            circuit, dd_assignment=DDAssignment.all([0]), shots=1000, engine="trajectories"
        )
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_seeded_runs_are_reproducible(self, london_backend):
        circuit = probe_circuit(5, 0, math.pi / 2, (1, 3), 6)
        a = NoisyExecutor(london_backend, seed=77).run(circuit, shots=500)
        b = NoisyExecutor(london_backend, seed=77).run(circuit, shots=500)
        assert a.counts == b.counts
        assert a.probabilities == pytest.approx(b.probabilities)


def fingerprint(result):
    """Everything a result reports, probabilities as float hex in key order."""
    return (
        result.engine,
        result.counts,
        [(bits, p.hex()) for bits, p in result.probabilities.items()],
        result.output_qubits,
        result.dd_pulse_count,
        result.num_active_qubits,
        result.metadata,
    )


def spy_engine_runs(monkeypatch, name):
    """Record the variant vector of every job that reaches engine ``name``,
    one list per engine call."""
    calls = []
    engine_class = type(get_engine(name))
    original = engine_class.run

    def spy(self, program, jobs, trajectories):
        calls.append([tuple(job.variants) for job in jobs])
        return original(self, program, jobs, trajectories)

    monkeypatch.setattr(engine_class, "run", spy)
    return calls


class TestResultMemo:
    """A compiled program computes each stream-free engine vector once; every
    job, memo hit or not, keeps a fresh executor's bits under its own seed."""

    SHOTS = 700
    EXACT = ["density_matrix", "stabilizer"]

    @pytest.fixture(scope="class")
    def ghz(self, rome_backend):
        """GHZ:4 on Rome: Clifford, two idle windows, and four DD subsets
        with four distinct variant vectors."""
        compiled = transpile(get_benchmark("GHZ:4").build(), rome_backend)
        active = sorted(compiled.gst.active_qubits())
        assignments = [
            DDAssignment.none(),
            DDAssignment.all(active[::2]),
            DDAssignment.all(active[1::2]),
            DDAssignment.all(active),
        ]
        return compiled, assignments

    def run(self, executor, ghz, assignments, seeds, engine):
        compiled, _ = ghz
        return executor.run_assignments(
            compiled.physical_circuit,
            assignments,
            shots=self.SHOTS,
            output_qubits=compiled.output_qubits,
            gst=compiled.gst,
            seeds=seeds,
            engine=engine,
        )

    def fresh(self, backend, ghz, assignment, seed, engine):
        """The reference: a single run on an executor with an empty memo."""
        return self.run(NoisyExecutor(backend), ghz, [assignment], [seed], engine)[0]

    @staticmethod
    def vectors(executor, ghz, assignments):
        compiled, _ = ghz
        program = executor.compile(compiled.physical_circuit, compiled.gst)
        return [tuple(program.assignment_variants(a, "xy4")) for a in assignments]

    @pytest.mark.parametrize("engine", EXACT)
    def test_repeat_batch_samples_only(self, rome_backend, ghz, monkeypatch, engine):
        _, assignments = ghz
        executor = NoisyExecutor(rome_backend)
        calls = spy_engine_runs(monkeypatch, engine)
        first = self.run(executor, ghz, assignments, [1, 2, 3, 4], engine)
        second = self.run(executor, ghz, assignments, [5, 6, 7, 8], engine)
        assert calls == [self.vectors(executor, ghz, assignments)]
        for assignment, seed, before, result in zip(assignments, [5, 6, 7, 8], first, second):
            assert fingerprint(result) == fingerprint(
                self.fresh(rome_backend, ghz, assignment, seed, engine)
            )
            assert result.probabilities == before.probabilities
            assert result.counts != before.counts  # its own sampling stream

    @pytest.mark.parametrize("engine", EXACT)
    def test_mixed_batch_runs_only_new_distinct_vectors(
        self, rome_backend, ghz, monkeypatch, engine
    ):
        _, (none, even, odd, full) = ghz
        executor = NoisyExecutor(rome_backend)
        self.run(executor, ghz, [none, odd], [1, 2], engine)
        calls = spy_engine_runs(monkeypatch, engine)
        batch = [full, none, even, full, odd, even]
        seeds = [10, 11, 12, 13, 14, 15]
        results = self.run(executor, ghz, batch, seeds, engine)
        assert calls == [self.vectors(executor, ghz, [full, even])]
        for assignment, seed, result in zip(batch, seeds, results):
            assert fingerprint(result) == fingerprint(
                self.fresh(rome_backend, ghz, assignment, seed, engine)
            )

    def test_exact_engines_keep_their_own_vectors(self, rome_backend, ghz):
        compiled, (none, even, _, _) = ghz
        executor = NoisyExecutor(rome_backend)
        jobs = [
            BatchJob(dd_assignment=assignment, shots=self.SHOTS, seed=seed,
                     output_qubits=compiled.output_qubits, engine=engine)
            for engine in self.EXACT
            for assignment, seed in ((none, 21), (even, 22))
        ]
        results = executor.run_batch(compiled.physical_circuit, jobs, gst=compiled.gst)
        results += executor.run_batch(compiled.physical_circuit, jobs[::-1], gst=compiled.gst)
        for job, result in zip(jobs + jobs[::-1], results):
            assert fingerprint(result) == fingerprint(
                self.fresh(rome_backend, ghz, job.dd_assignment, job.seed, job.engine)
            )

    @pytest.mark.parametrize("engine", ["trajectories", "stabilizer_frames"])
    def test_stream_engines_run_every_call(self, rome_backend, ghz, monkeypatch, engine):
        _, assignments = ghz
        executor = NoisyExecutor(rome_backend, trajectories=20)
        calls = spy_engine_runs(monkeypatch, engine)
        for _ in range(2):
            self.run(executor, ghz, assignments[:2] * 2, [1, 2, 1, 2], engine)
        vectors = self.vectors(executor, ghz, assignments[:2] * 2)
        assert calls == [vectors, vectors]
        compiled, _ = ghz
        program = executor.compile(compiled.physical_circuit, compiled.gst)
        assert "results" not in program.engine_cache

    @pytest.mark.parametrize("engine", EXACT)
    def test_vector_depends_only_on_program_and_variants(self, rome_backend, ghz, engine):
        """The memo key's premise, on the engine itself: outputs, trajectories
        and batch companions never move a stream-free vector's bytes."""
        compiled, assignments = ghz

        def program():
            executor = NoisyExecutor(rome_backend)
            return executor.compile(compiled.physical_circuit, compiled.gst)

        run = get_engine(engine).run
        target, *others = self.vectors(NoisyExecutor(rome_backend), ghz, assignments)
        alone = run(program(), [EngineJob(variants=list(target))], 1)[0].tobytes()
        shared = program()
        run(shared, [EngineJob(variants=list(others[0]))], 1)
        cases = [
            (program(), [EngineJob(variants=list(target), outputs=(3, 1))], 60),
            (program(), [EngineJob(variants=list(v)) for v in others + [target]], 1),
            (program(), [EngineJob(variants=list(v)) for v in [target] + others[::-1]], 200),
            (shared, [EngineJob(variants=list(v), outputs=(0,)) for v in others + [target]], 7),
        ]
        for prog, engine_jobs, trajectories in cases:
            index = [tuple(job.variants) for job in engine_jobs].index(target)
            assert run(prog, engine_jobs, trajectories)[index].tobytes() == alone

    @pytest.mark.parametrize("engine", EXACT)
    def test_memo_vectors_are_read_only_and_bounded(
        self, rome_backend, ghz, monkeypatch, engine
    ):
        import repro.hardware.execution as execution_module

        compiled, assignments = ghz
        executor = NoisyExecutor(rome_backend)
        self.run(executor, ghz, assignments, [1, 2, 3, 4], engine)
        memo = executor.compile(compiled.physical_circuit, compiled.gst).engine_cache["results"]
        assert len(memo.vectors) == 4
        assert memo.nbytes == sum(v.nbytes for v in memo.vectors.values())
        assert memo.nbytes <= execution_module.RESULT_MEMO_BYTES
        for vector in memo.vectors.values():
            assert not vector.flags.writeable
            with pytest.raises(ValueError):
                vector[0] = 0.5

        # A bound of two vectors keeps the first two and runs the rest again.
        vector_bytes = next(iter(memo.vectors.values())).nbytes
        monkeypatch.setattr(execution_module, "RESULT_MEMO_BYTES", 2 * vector_bytes)
        executor = NoisyExecutor(rome_backend)
        calls = spy_engine_runs(monkeypatch, engine)
        self.run(executor, ghz, assignments, [1, 2, 3, 4], engine)
        results = self.run(executor, ghz, assignments, [5, 6, 7, 8], engine)
        vectors = self.vectors(executor, ghz, assignments)
        assert calls == [vectors, vectors[2:]]
        memo = executor.compile(compiled.physical_circuit, compiled.gst).engine_cache["results"]
        assert list(memo.vectors) == [(engine, v) for v in vectors[:2]]
        assert memo.nbytes == 2 * vector_bytes
        for assignment, seed, result in zip(assignments, [5, 6, 7, 8], results):
            assert fingerprint(result) == fingerprint(
                self.fresh(rome_backend, ghz, assignment, seed, engine)
            )

    def test_warm_served_context_samples_only(self, monkeypatch):
        """A second round on a warm context runs no dense job, and its
        records equal a cold cache's."""
        import json

        from repro.service.requests import ContextCache, RunRequest, execute_run_requests

        def requests(seeds):
            return [
                RunRequest("ibmq_rome", "ADDER-4", shots=2500, seed=seed, max_shots=1000)
                for seed in seeds
            ]

        calls = spy_engine_runs(monkeypatch, "density_matrix")
        contexts = ContextCache()
        execute_run_requests(requests([1]), contexts=contexts)
        assert len(calls) == 1
        del calls[:]
        second = requests([2, 3])
        warm = execute_run_requests(second, contexts=contexts)
        assert calls == []
        cold = execute_run_requests(second, contexts=ContextCache())
        assert len(calls) == 1
        for request in second:
            assert warm[request.request_id].meta["engine"] == "density_matrix"
            assert json.dumps(warm[request.request_id].meta, sort_keys=True) == json.dumps(
                cold[request.request_id].meta, sort_keys=True
            )

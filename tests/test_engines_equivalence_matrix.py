"""Packed-vs-oracle equivalence matrix for the Clifford engines.

Runs the ``stabilizer`` and ``stabilizer_frames`` engines across the existing
DD-assignment and readout matrices twice — once on the packed symplectic
kernels, once on the boolean-row reference of the ``oracle`` test package —
and requires the outputs to be *bit-identical*: counts, probabilities, the
frame engine's exact ``flip_free_probability`` metadata, and the
:class:`~repro.simulators.SparseDistribution` support the sparse path emits.
Store keys fingerprint these payloads, so "bit-identical" is the contract
the packed kernels are held to.  Every oracle run also checks that the
oracle's tableau, mask builder and frame loop were the code that ran.

Both implementations of the frame-flip accumulation are exercised: the
sparse scatter-XOR default, and the dense gather kernel that takes over in
high-error regimes (forced here by shrinking the dispatch threshold).
Mirror circuits on 65- and 129-qubit line devices carry the comparison past
one and two packed words per row.
"""

import pytest

from oracle import installed
from repro.circuits import QuantumCircuit
from repro.dd import DDAssignment
from repro.hardware import Backend, NoisyExecutor, topologies
from repro.hardware.devices import synthetic_device
from repro.simulators.engines import StabilizerFrameEngine, get_engine
from repro.transpiler.transpile import transpile
from repro.workloads.suite import get_benchmark

ASSIGNMENTS = [DDAssignment.none(), DDAssignment.all([0]), DDAssignment.all([0, 1, 3])]
SEEDS = [11, 22]
ENGINES = ["stabilizer", "stabilizer_frames"]


def clifford_probe(num_qubits=5, idle_qubit=0, cnot_link=(1, 3), repetitions=10):
    """The idle-qubit probe of ``test_engines.py`` (Clifford gates only)."""
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


def _run(backend, engine, assignment, seed, pure, circuit=None, **options):
    """One single-job run on a fresh executor (and so a fresh engine cache);
    with ``pure``, on the oracle, which must have run in full."""
    executor = NoisyExecutor(backend, seed=seed, trajectories=40)

    def run():
        return executor.run(
            clifford_probe() if circuit is None else circuit,
            dd_assignment=assignment,
            shots=256,
            engine=engine,
            seed=seed,
            **options,
        )

    if not pure:
        return run()
    with installed() as calls:
        result = run()
    assert calls["tableau"] == 1 and calls["mask_table"] == 1, calls
    assert calls["variant_masks"] > 0, calls
    assert calls["frame_loop"] == int(engine == "stabilizer_frames"), calls
    return result


def _assert_identical(fast, pure):
    assert fast.counts == pure.counts
    assert fast.probabilities == pure.probabilities
    assert fast.metadata.get("flip_free_probability") == pure.metadata.get(
        "flip_free_probability"
    )
    assert fast.engine == pure.engine
    assert fast.output_qubits == pure.output_qubits


@pytest.fixture(scope="module", params=[65, 129], ids=["MIRROR:65@3", "MIRROR:129@3"])
def line_mirror(request):
    """A mirror circuit transpiled onto a line device of its own width."""
    width = request.param
    backend = Backend(synthetic_device(width, edges=topologies.line(width)))
    return backend, transpile(get_benchmark(f"MIRROR:{width}@3").build(), backend)


class TestKernelEquivalenceMatrix:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("assignment", ASSIGNMENTS, ids=["none", "q0", "q013"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_dd_matrix_bit_identical(self, london_backend, engine, assignment, seed):
        fast = _run(london_backend, engine, assignment, seed, False)
        pure = _run(london_backend, engine, assignment, seed, True)
        _assert_identical(fast, pure)
        if engine == "stabilizer_frames":
            # The sparse path folds readout per frame and reports the exact
            # flip-free probability; both facts must match the oracle's.
            assert fast.metadata.get("flip_free_probability") is not None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_readout_matrix_bit_identical(self, rome_backend, guadalupe_backend, engine):
        """Different calibrations (readout asymmetries) across two devices."""
        for backend in (rome_backend, guadalupe_backend):
            fast = _run(backend, engine, DDAssignment.none(), 33, False)
            pure = _run(backend, engine, DDAssignment.none(), 33, True)
            _assert_identical(fast, pure)

    def test_sparse_support_identical(self, london_backend):
        """The SparseDistribution support (the exact set of output strings,
        in insertion order) matches the oracle's."""
        fast = _run(london_backend, "stabilizer_frames", ASSIGNMENTS[2], 11, False)
        pure = _run(london_backend, "stabilizer_frames", ASSIGNMENTS[2], 11, True)
        assert list(fast.probabilities) == list(pure.probabilities)

    def test_dense_gather_branch_bit_identical(self, london_backend, monkeypatch):
        """Forcing the dense gather kernel must not change a single bit."""
        fast = _run(london_backend, "stabilizer_frames", ASSIGNMENTS[1], 22, False)
        monkeypatch.setattr(StabilizerFrameEngine, "_DENSE_GATHER_FRACTION", -1.0)
        dense = _run(london_backend, "stabilizer_frames", ASSIGNMENTS[1], 22, False)
        _assert_identical(fast, dense)
        pure = _run(london_backend, "stabilizer_frames", ASSIGNMENTS[1], 22, True)
        _assert_identical(dense, pure)

    def test_batch_invariance_survives_kernel_swap(self, london_backend):
        """One packed batch of three jobs: each job equals the oracle's
        one-job run, on both Clifford engines."""
        seeds = [11, 22, 33]
        for engine in ENGINES:
            executor = NoisyExecutor(london_backend, trajectories=40)
            batch = executor.run_assignments(
                clifford_probe(), ASSIGNMENTS, shots=256, seeds=seeds, engine=engine
            )
            for assignment, seed, fast in zip(ASSIGNMENTS, seeds, batch):
                pure = _run(london_backend, engine, assignment, seed, True)
                _assert_identical(fast, pure)

    @pytest.mark.parametrize("dd", ["none", "every_third"])
    def test_mirror_past_one_packed_word_bit_identical(self, line_mirror, dd):
        """65 and 129 active qubits: two and three packed words per row."""
        backend, compiled = line_mirror
        if dd == "none":
            assignment = DDAssignment.none()
        else:
            assignment = DDAssignment.all(range(0, backend.num_qubits, 3))
        options = dict(
            circuit=compiled.physical_circuit,
            output_qubits=compiled.output_qubits,
            gst=compiled.gst,
        )
        fast = _run(backend, "stabilizer_frames", assignment, 5, False, **options)
        pure = _run(backend, "stabilizer_frames", assignment, 5, True, **options)
        _assert_identical(fast, pure)
        assert list(fast.probabilities) == list(pure.probabilities)

    def test_memory_model_reports_packed_words(self):
        """The frame engine's budget model is trajectories x packed words."""
        engine = get_engine("stabilizer_frames")
        assert engine.state_bytes(64, 100) == 8 * 1 * 100
        assert engine.state_bytes(65, 100) == 8 * 2 * 100
        assert engine.state_bytes(1023, 60) == 8 * 16 * 60
        assert engine.state_bytes(0, 0) >= 1

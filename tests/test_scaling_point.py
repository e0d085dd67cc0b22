"""One scaling point, one tableau pass, and a clock that covers the ideal.

Where :data:`~repro.core.ideal.PROGRAM_TIERS` computes a point's ideal on the
tableau, :func:`~repro.analysis.scaling.hardware_scaling_point` reads the
support its noisy program memoized for the Clifford engines instead of
running the tableau over the circuit a second time.  The ``oracle`` package
counts tableau constructions; the records must equal the plain run's in
every field but the wall-clock ones.  ``evaluate_s`` must cover the ideal.
"""

import dataclasses
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import installed

from repro.analysis import scaling
from repro.analysis.scaling import hardware_scaling_point
from repro.circuits import QuantumCircuit
from repro.core.evaluation import compiled_ideal_distribution
from repro.core.ideal import (
    PROGRAM_TIERS,
    ideal_distribution,
    support_distribution,
    tier_method,
)
from repro.hardware import Backend, NoisyExecutor, topologies
from repro.hardware.devices import synthetic_device
from repro.hardware.program import CompiledNoisyProgram
from repro.simulators import StabilizerSimulator
from repro.transpiler.transpile import transpile
from repro.workloads.suite import get_benchmark

_WALL_CLOCK_FIELDS = ("transpile_s", "evaluate_s")

POINTS = {
    "MIRROR:20@7": dict(benchmark="MIRROR:20@7"),
    "GHZ:20-frames": dict(benchmark="GHZ:20", engine="stabilizer_frames"),
}


def _fields(record):
    fields = dataclasses.asdict(record)
    for name in _WALL_CLOCK_FIELDS:
        fields.pop(name)
    return fields


def _point(backend, **options):
    return hardware_scaling_point(backend, trajectories=40, seed=7, **options)


def _wrapped(monkeypatch, before):
    """Run ``before(name)`` ahead of each ideal path the scaling point can take."""
    for name, original in (
        ("compiled_ideal_distribution", compiled_ideal_distribution),
        ("support_distribution", support_distribution),
    ):

        def wrapper(*args, _original=original, _name=name, **kwargs):
            before(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(scaling, name, wrapper, raising=False)


def _spied(monkeypatch, calls):
    """Count which ideal path the scaling point takes."""
    _wrapped(monkeypatch, lambda name: calls.update([name]))


class TestOneTableauPass:
    @pytest.mark.parametrize("point", sorted(POINTS))
    def test_tableau_tier_point_runs_the_tableau_once(self, toronto_backend, monkeypatch, point):
        options = POINTS[point]
        plain = _point(toronto_backend, **options)
        with installed() as calls:
            _spied(monkeypatch, calls)
            pure = _point(toronto_backend, **options)
        assert calls["tableau"] == 1, calls
        assert calls["support_distribution"] == 1, calls
        assert calls["compiled_ideal_distribution"] == 0, calls
        assert pure.num_active_qubits > 16
        assert _fields(pure) == _fields(plain)

    def test_small_point_keeps_the_statevector_tier(self, toronto_backend, monkeypatch):
        compiled = transpile(get_benchmark("MIRROR:13@7").build(), toronto_backend)
        assert tier_method(compiled.physical_circuit, PROGRAM_TIERS) == "statevector"
        plain = _point(toronto_backend, benchmark="MIRROR:13@7")
        with installed() as calls:
            _spied(monkeypatch, calls)
            pure = _point(toronto_backend, benchmark="MIRROR:13@7")
        assert calls["tableau"] == 1, calls  # the frame engine's support only
        assert calls["compiled_ideal_distribution"] == 1, calls
        assert calls["support_distribution"] == 0, calls
        assert pure.mirror_verified
        assert _fields(pure) == _fields(plain)

    def test_ideal_from_the_support_equals_the_circuit_ideal(self, toronto_backend):
        # A GHZ chain whose last qubit only a barrier touches: the program
        # leaves that qubit out, the tableau tier keeps it.
        chain = QuantumCircuit(18).h(0)
        for q in range(16):
            chain.cx(q, q + 1)
        chain.barrier(17)
        for q in range(17):
            chain.measure(q)
        circuits = [get_benchmark(o["benchmark"]).build() for o in POINTS.values()] + [chain]
        for circuit in circuits:
            compiled = transpile(circuit, toronto_backend)
            assert tier_method(compiled.physical_circuit, PROGRAM_TIERS) == "tableau"
            program = NoisyExecutor(toronto_backend).compile(
                compiled.physical_circuit, compiled.gst
            )
            ideal = support_distribution(
                *program.ideal_support(), program.active, compiled.output_qubits
            )
            assert _items(ideal) == _items(compiled_ideal_distribution(compiled))
        # The chain, last, did leave its barrier-only qubit out of the program.
        assert len(program.active) < len(compiled.physical_circuit.qubits_used())


def _items(distribution):
    return [(bits, repr(probability)) for bits, probability in distribution.items()]


@st.composite
def clifford_circuits(draw):
    """A random Clifford circuit on a 7-qubit line; some qubits may be idle,
    touched only by barriers, or unmeasured."""
    circuit = QuantumCircuit(7)
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(["h", "s", "sx", "x", "rz", "cx", "cx", "barrier"]))
        if kind == "cx":
            a = draw(st.integers(0, 5))
            circuit.cx(*((a, a + 1) if draw(st.booleans()) else (a + 1, a)))
        elif kind == "rz":
            turns = draw(st.sampled_from([0.5, 1.0, 1.5, -0.5]))
            circuit.rz(turns * math.pi, draw(st.integers(0, 6)))
        elif kind == "barrier":
            circuit.barrier(*draw(st.sets(st.integers(0, 6), min_size=1)))
        else:
            getattr(circuit, kind)(draw(st.integers(0, 6)))
    for qubit in sorted(draw(st.sets(st.integers(0, 6), min_size=1))):
        circuit.measure(qubit)
    return circuit


_LINE_7 = Backend(synthetic_device(7, edges=topologies.line(7), name="line_7"))


class TestProgramSupport:
    @given(clifford_circuits(), st.sampled_from(["alap", "asap"]))
    @settings(max_examples=80, deadline=None)
    def test_template_order_support_gives_the_circuit_ideal(self, circuit, method):
        """Gates on disjoint qubits commute bit for bit on the tableau, so the
        schedule's order gives the circuit order's support; a qubit only a
        barrier touches reads 0 on both paths."""
        gst = _LINE_7.schedule(circuit, method=method)
        program = CompiledNoisyProgram(_LINE_7, circuit, gst)
        compacted, used = circuit.compact()
        base, basis = program.ideal_support()
        if tuple(program.active) == used:
            want_base, want_basis = StabilizerSimulator().support(compacted)
            assert base.tolist() == want_base.tolist()
            assert basis.tolist() == want_basis.tolist()
        outputs = sorted({g.qubits[0] for g in circuit if g.is_measurement})
        ideal = support_distribution(base, basis, program.active, outputs)
        assert _items(ideal) == _items(ideal_distribution(circuit, outputs, (("tableau", None),)))


class TestScalingPointTiming:
    SLEEP_S = 0.3

    @pytest.mark.parametrize("point", ["MIRROR:13@7", "MIRROR:20@7"])
    def test_evaluate_s_covers_the_ideal(self, toronto_backend, monkeypatch, point):
        """Either ideal path, slowed by a fixed sleep, shows in ``evaluate_s``."""
        _wrapped(monkeypatch, lambda name: time.sleep(self.SLEEP_S))
        record = _point(toronto_backend, benchmark=point)
        assert record.evaluate_s >= self.SLEEP_S

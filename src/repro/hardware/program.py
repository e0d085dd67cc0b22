"""The compiled-program layer shared by every execution path.

A :class:`CompiledNoisyProgram` is everything about one scheduled circuit on
one backend that is invariant across executions: the active-qubit set and
output resolution, the time-ordered event template with gate unitaries and
noise channels resolved into Kraus lists (each engine-ready form — dense
superoperator, tensors, Pauli twirl — is derived on first use), and the
memoized idle-window *variants* (unprotected, or protected by one DD
protocol).

The :class:`~repro.hardware.execution.NoisyExecutor` compiles circuits into
this representation (through a :class:`ProgramCache`) and hands it to the
engines registered in :mod:`repro.simulators.engines` — the ``run`` vs
``run_batch`` equivalence contract of ``docs/architecture.md`` is therefore
true by construction: there is exactly one event-building and one engine
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate, gate_matrix
from ..core.gst import GateSequenceTable, IdleWindow
from ..dd.insertion import DDAssignment
from ..dd.sequences import get_sequence
from ..noise.model import NoiseOp
from ..simulators import channels
from ..simulators.engines import pauli_twirl_probabilities
from ..simulators.stabilizer import StabilizerSimulator, is_tableau_supported
from ..simulators.statevector import SimulationError

__all__ = [
    "WINDOW_NOISE_PRIORITY",
    "GATE_EVENT_PRIORITY",
    "GATE_NOISE_PRIORITY",
    "ResolvedOp",
    "CompiledNoisyProgram",
    "ProgramCache",
    "cached_gate_matrix",
    "process_cache_stats",
    "mixed_unitary_form",
]

#: Sort priorities of the execution event stream at equal timestamps.  Every
#: engine consumes events in this order (and therefore consumes randomness in
#: this order), which is what makes seeded results engine-batching invariant.
WINDOW_NOISE_PRIORITY = 0
GATE_EVENT_PRIORITY = 1
GATE_NOISE_PRIORITY = 2


# ---------------------------------------------------------------------------
# Process-level caches (gate unitaries, resolved noise ops)
# ---------------------------------------------------------------------------

#: All process-level caches are LRU-bounded: rotation angles, gate params and
#: per-cycle Kraus weights are continuous, so a long-running sweep across
#: calibration cycles/devices would otherwise grow them without bound.
_GATE_MATRIX_CACHE: Dict[Tuple[str, Tuple[float, ...]], np.ndarray] = {}
_CACHE_MAX_ENTRIES = 8192


def _lru_get(cache: Dict, key: object, build):
    """Bounded-LRU lookup shared by the process-level caches."""
    value = cache.pop(key, None)  # LRU refresh (re-inserted below)
    if value is None:
        value = build()
    cache[key] = value
    while len(cache) > _CACHE_MAX_ENTRIES:
        cache.pop(next(iter(cache)))
    return value


def cached_gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Process-level memoized, read-only :func:`~repro.circuits.gates.gate_matrix`."""

    def build() -> np.ndarray:
        matrix = gate_matrix(name, params)
        matrix.setflags(write=False)
        return matrix

    return _lru_get(_GATE_MATRIX_CACHE, (name, tuple(float(p) for p in params)), build)


def process_cache_stats() -> Dict[str, int]:
    """Sizes of the process-level caches (useful for diagnostics/tests)."""
    return {
        "gate_matrices": len(_GATE_MATRIX_CACHE),
        "resolved_ops": len(_RESOLVED_OP_CACHE),
    }


# ---------------------------------------------------------------------------
# Resolved operators
# ---------------------------------------------------------------------------


def mixed_unitary_form(
    kraus: List[np.ndarray],
) -> Optional[Tuple[np.ndarray, List[Optional[np.ndarray]]]]:
    """Decompose a channel into (probabilities, unitaries) when possible.

    A Kraus operator of the form ``K = sqrt(p) U`` with ``U`` unitary
    satisfies ``K^dagger K = p I``; channels whose operators all have this
    form (depolarizing, bit/phase flip) can be sampled without touching the
    statevector.  Identity branches are returned as ``None`` so they can be
    skipped entirely.
    """
    probabilities = []
    unitaries: List[Optional[np.ndarray]] = []
    valid = True
    for operator in kraus:
        operator = np.asarray(operator, dtype=complex)
        gram = operator.conj().T @ operator
        weight = float(np.real(gram[0, 0]))
        if weight < 1e-14:
            continue
        if not np.allclose(gram, weight * np.eye(operator.shape[0]), atol=1e-10):
            valid = False
            break
        unitary = operator / math.sqrt(weight)
        probabilities.append(weight)
        if np.allclose(unitary, np.eye(unitary.shape[0]), atol=1e-10):
            unitaries.append(None)
        else:
            unitaries.append(unitary)
    if valid and probabilities:
        probs = np.array(probabilities)
        return probs / probs.sum(), unitaries
    return None


@dataclass
class ResolvedOp:
    """One gate or noise channel of a compiled program, kept as its Kraus list.

    ``kraus`` (one matrix for a unitary) is the only form built at compile
    time.  Every engine-ready form is derived from it on first read and
    memoized on the op, so each form is built only by an engine that reads
    it:

    * ``superop`` — ``sum_m K_m (x) conj(K_m)`` reshaped into a ``(2,)*(4k)``
      tensor with legs ``(row_out..., col_out..., row_in..., col_in...)``;
      the density-matrix engine applies any channel as ONE BLAS-backed
      contraction over the row+col legs of the whole batch;
    * ``tensor``, ``kraus_stack`` and ``mixed`` — the trajectory engine's
      unitary tensor, stacked Kraus tensors and mixed-unitary sampling form;
    * ``twirl`` — the Pauli twirl, the only form the two Clifford engines
      read.

    ``std`` is set only for ``gaussian_phase`` noise: its Kraus list is the
    equivalent phase-damping channel, while the trajectory engine samples a
    concrete RZ angle per trajectory.  ``gate`` is set for program gates (the
    ideal circuit), ``noise`` for noise operations.
    """

    positions: Tuple[int, ...]      # active-space qubit positions
    kraus: List[np.ndarray]         # (2^k, 2^k) complex Kraus operators
    std: Optional[float] = None     # gaussian_phase std-dev
    gate: Optional[Gate] = None
    noise: Optional[NoiseOp] = None

    @property
    def kind(self) -> str:
        """``"gaussian"``, ``"unitary"`` (one Kraus operator) or ``"kraus"``."""
        if self.std is not None:
            return "gaussian"
        return "unitary" if len(self.kraus) == 1 else "kraus"

    @cached_property
    def superop(self) -> np.ndarray:
        dim = self.kraus[0].shape[0]
        total = np.zeros((dim * dim, dim * dim), dtype=complex)
        for operator in self.kraus:
            total += np.kron(operator, operator.conj())
        return total.reshape((2,) * (4 * len(self.positions)))

    @cached_property
    def tensor(self) -> np.ndarray:
        return _as_op_tensor(self.kraus[0])

    @cached_property
    def kraus_stack(self) -> np.ndarray:
        return np.stack([_as_op_tensor(k) for k in self.kraus])

    @cached_property
    def mixed(self) -> Optional[Tuple[np.ndarray, List[Optional[np.ndarray]]]]:
        """``(cumulative probabilities, unitary tensors)`` of
        :func:`mixed_unitary_form`, or ``None`` for channels without one."""
        form = mixed_unitary_form(self.kraus)
        if form is None:
            return None
        probabilities, unitaries = form
        return np.cumsum(probabilities), [
            None if u is None else _as_op_tensor(u) for u in unitaries
        ]

    @cached_property
    def twirl(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(probs, xbits, zbits)`` of :func:`pauli_twirl_probabilities`."""
        return pauli_twirl_probabilities(self.kraus)


def _as_op_tensor(matrix: np.ndarray) -> np.ndarray:
    k = int(round(math.log2(matrix.shape[0])))
    return np.ascontiguousarray(matrix, dtype=complex).reshape((2,) * (2 * k))


#: Process-level memo of resolved noise ops, keyed by channel content and
#: active-space positions.  Identical channels recur constantly (every CNOT
#: on one link shares a depolarizing channel; idle windows repeat variants),
#: so one op is shared across events AND across compiled programs — and with
#: it every form an engine has derived from it.  LRU-bounded like the gate
#: matrices: each entry may carry kilobytes of derived tensors.
_RESOLVED_OP_CACHE: Dict[object, ResolvedOp] = {}


def _noise_op_cache_key(op: NoiseOp, positions: Tuple[int, ...]) -> Optional[object]:
    if op.kind in ("rz", "rx", "gaussian_phase"):
        return (op.kind, positions, float(op.payload))  # type: ignore[arg-type]
    try:
        fingerprint = tuple(
            np.ascontiguousarray(k, dtype=complex).tobytes() for k in op.payload  # type: ignore[union-attr]
        )
    except TypeError:  # pragma: no cover - exotic payloads stay uncached
        return None
    return (op.kind, positions, fingerprint)


def _resolve_noise_op(op: NoiseOp, index_of: Dict[int, int]) -> ResolvedOp:
    positions = tuple(index_of[q] for q in op.qubits)
    key = _noise_op_cache_key(op, positions)
    if key is None:
        return _resolve_noise_op_uncached(op, positions)
    return _lru_get(_RESOLVED_OP_CACHE, key, lambda: _resolve_noise_op_uncached(op, positions))


def _resolve_noise_op_uncached(op: NoiseOp, positions: Tuple[int, ...]) -> ResolvedOp:
    if op.kind in ("rz", "rx"):
        return ResolvedOp(positions, [cached_gate_matrix(op.kind, (float(op.payload),))], noise=op)
    if op.kind == "gaussian_phase":
        sigma = float(op.payload)
        lam = 1.0 - math.exp(-(sigma ** 2))
        return ResolvedOp(positions, channels.phase_damping(min(1.0, lam)), std=sigma, noise=op)
    kraus = [np.asarray(k, dtype=complex) for k in op.payload]  # type: ignore[union-attr]
    return ResolvedOp(positions, kraus, noise=op)


# ---------------------------------------------------------------------------
# The compiled program
# ---------------------------------------------------------------------------


class CompiledNoisyProgram:
    """Everything about one compiled circuit that is invariant across jobs.

    The event template is a single time-ordered list of ``("op", ResolvedOp)``
    entries (gates and gate noise) and ``("window", index)`` placeholder slots
    (idle windows whose noise depends on the job's DD variant), ordered with
    the shared priority constants so every engine consumes events — and
    therefore randomness — identically.
    """

    def __init__(self, backend, circuit: QuantumCircuit, gst: GateSequenceTable) -> None:
        self.backend = backend
        self.circuit = circuit
        self.gst = gst

        active = set(gst.active_qubits())
        for gate in circuit:
            if gate.is_measurement:
                active.update(gate.qubits)
        self.active: List[int] = sorted(active)
        self.index_of: Dict[int, int] = {q: i for i, q in enumerate(self.active)}
        measured = sorted({g.qubits[0] for g in circuit if g.is_measurement})
        self.default_outputs: List[int] = measured or list(self.active)

        self.windows: List[IdleWindow] = gst.idle_windows()
        #: Per window, its concurrent CNOTs as ``(link indices into
        #: gst.cnot_links, summed overlaps)`` arrays.
        self.concurrent: List[Tuple[np.ndarray, np.ndarray]] = [
            gst.concurrent_cnots(w.start, w.end, exclude_qubit=w.qubit)
            for w in self.windows
        ]

        # Event template: gate events are fixed, each idle window is a
        # placeholder slot resolved per job variant at execution time.
        entries: List[Tuple[float, int, int, Tuple[str, object]]] = []
        order = 0
        clifford = True
        noise_model = backend.gate_noise
        # Per distinct gate, its matrix and resolved noise ops, keyed by
        # everything ``gate_noise`` reads: the 255-qubit mirror program
        # schedules 12,694 gates but only 1,556 distinct ones.
        resolved_gates: Dict[Tuple[object, ...], Tuple[np.ndarray, List[ResolvedOp]]] = {}
        for scheduled in gst.scheduled_gates:
            gate = scheduled.gate
            if gate.is_measurement or gate.is_barrier or gate.is_delay:
                continue
            clifford = clifford and is_tableau_supported(gate)
            key = (gate.name, gate.qubits, gate.params, gate.label)
            resolved_gate = resolved_gates.get(key)
            if resolved_gate is None:
                resolved_gate = (
                    cached_gate_matrix(gate.name, gate.params),
                    [_resolve_noise_op(op, self.index_of) for op in noise_model.gate_noise(gate)],
                )
                resolved_gates[key] = resolved_gate
            matrix, noise = resolved_gate
            positions = tuple(self.index_of[q] for q in gate.qubits)
            resolved = ResolvedOp(positions, [matrix], gate=gate)
            entries.append((scheduled.start, GATE_EVENT_PRIORITY, order, ("op", resolved)))
            order += 1
            for op in noise:
                entries.append((scheduled.start, GATE_NOISE_PRIORITY, order, ("op", op)))
                order += 1
        for widx, window in enumerate(self.windows):
            entries.append((window.end, WINDOW_NOISE_PRIORITY, order, ("window", widx)))
            order += 1
        entries.sort(key=lambda item: (item[0], item[1], item[2]))
        self.template: List[Tuple[str, object]] = [entry[3] for entry in entries]

        #: True when every gate event is exactly representable on the
        #: stabilizer tableau — the precondition of the Clifford fast path.
        self.is_clifford: bool = clifford

        self._sequences: Dict[str, object] = {}
        self._trains: Dict[Tuple[str, int], Optional[object]] = {}
        self._window_ops: Dict[Tuple[int, Optional[str]], List[ResolvedOp]] = {}
        self._crosstalk: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._ideal_support: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Scratch space for engines to memoize program-derived state
        #: (e.g. the stabilizer engine's ideal spectrum and noise masks), and
        #: the execution pipeline's result memo (``"results"``).
        self.engine_cache: Dict[str, object] = {}

    @property
    def num_active(self) -> int:
        return len(self.active)

    def ideal_support(self) -> Tuple[np.ndarray, np.ndarray]:
        """Affine support ``base ⊕ span(basis)`` of the ideal outcome.

        One tableau pass (:meth:`StabilizerSimulator.support_ops`) over the
        template's gates as ``(name, positions, params)``, memoized on the
        program.  Both Clifford engines read it, and so does the scaling
        study's ideal distribution where the tableau tier computes it.
        Mirror workloads are fully deterministic, so their basis is empty.
        """
        if self._ideal_support is None:
            ops = [
                (payload.gate.name, payload.positions, payload.gate.params)
                for kind, payload in self.template
                if kind == "op" and payload.gate is not None
            ]
            self._ideal_support = StabilizerSimulator().support_ops(self.num_active, ops)
        return self._ideal_support

    # -- output resolution ---------------------------------------------

    def resolve_outputs(self, output_qubits: Optional[Sequence[int]]) -> List[int]:
        """Physical qubits defining the output bit order (validated)."""
        if output_qubits is not None:
            outputs = [int(q) for q in output_qubits]
        else:
            outputs = list(self.default_outputs)
        missing = [q for q in outputs if q not in self.index_of]
        if missing:
            raise SimulationError(f"output qubits {missing} never appear in the circuit")
        return outputs

    # -- window variants -----------------------------------------------

    def sequence(self, name: str):
        """Memoized :func:`~repro.dd.sequences.get_sequence`."""
        sequence = self._sequences.get(name)
        if sequence is None:
            sequence = get_sequence(name)
            self._sequences[name] = sequence
        return sequence

    def train_for(self, sequence_name: str, widx: int):
        """The (memoized) pulse train protecting window ``widx``, or ``None``."""
        key = (sequence_name, widx)
        if key not in self._trains:
            sequence = self.sequence(sequence_name)
            window = self.windows[widx]
            train = None
            if window.duration > max(sequence.min_window_ns(), 1e-9):
                train = sequence.build_train(window.qubit, window.start, window.duration)
            self._trains[key] = train
        return self._trains[key]

    def window_crosstalk(self, widx: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Window ``widx``'s crosstalk terms for the idle-noise model.

        ``(dephasing_multiplier - 1.0, zz_shift_rate, overlap_ns)`` over the
        window's concurrent links.  The first two are gathered from every
        qubit's crosstalk over ``gst.cnot_links``, one column gather per
        program (:meth:`Calibration.crosstalk_columns`) on first use.
        """
        if self._crosstalk is None:
            self._crosstalk = self.backend.idle_noise.calibration.crosstalk_columns(
                self.gst.cnot_links
            )
        excess, zz_rates = self._crosstalk
        qubit = self.windows[widx].qubit
        links, overlaps = self.concurrent[widx]
        return excess[qubit, links], zz_rates[qubit, links], overlaps

    def window_ops(self, widx: int, variant: Optional[str]) -> List[ResolvedOp]:
        """Noise ops of one idle window under one variant.

        ``variant`` is ``None`` (unprotected) or a protocol name (the window
        carries that protocol's memoized train).
        """
        key = (widx, variant)
        ops = self._window_ops.get(key)
        if ops is None:
            window = self.windows[widx]
            train = None if variant is None else self.train_for(variant, widx)
            effect = self.backend.idle_noise.window_effect(
                window.qubit, window.duration, self.window_crosstalk(widx), train
            )
            ops = [_resolve_noise_op(op, self.index_of) for op in effect.noise_ops()]
            self._window_ops[key] = ops
        return ops

    def assignment_variants(
        self, assignment: Optional[DDAssignment], protocol: str
    ) -> List[Optional[str]]:
        """Per-window variant of one job: the protocol's name where it protects.

        A window is protected when ``assignment`` enables its qubit and the
        protocol's train fits it.  This is the one place that decides which
        windows a job protects; an unknown protocol raises ``KeyError``.
        """
        assignment = assignment or DDAssignment.none()
        name = self.sequence(protocol).name
        return [
            name if assignment.enabled(w.qubit) and self.train_for(name, widx) is not None
            else None
            for widx, w in enumerate(self.windows)
        ]


# ---------------------------------------------------------------------------
# The compile cache
# ---------------------------------------------------------------------------


class ProgramCache:
    """LRU cache of compiled programs, one per executor.

    Entries are keyed by ``(id(circuit), len(circuit), id(gst))`` and verified
    by identity before a hit is returned; the cached program keeps strong
    references to its circuit and schedule, so the ``id()`` keys cannot be
    recycled while an entry is alive.  The gate-count component guards against
    the one mutation the circuit IR allows (appending gates).
    """

    def __init__(self, backend, max_entries: int = 16) -> None:
        self.backend = backend
        self.max_entries = max(1, int(max_entries))
        self.entries: Dict[Tuple[int, int, Optional[int]], CompiledNoisyProgram] = {}

    def get(
        self, circuit: QuantumCircuit, gst: Optional[GateSequenceTable] = None
    ) -> Tuple[CompiledNoisyProgram, bool]:
        """Return ``(program, cache_hit)`` for a circuit/schedule pair."""
        key = (id(circuit), len(circuit), None if gst is None else id(gst))
        program = self.entries.get(key)
        if program is not None and program.circuit is circuit and (
            gst is None or program.gst is gst
        ):
            self.entries[key] = self.entries.pop(key)  # LRU refresh
            return program, True
        if gst is None:
            gst = self.backend.schedule(circuit)
        program = CompiledNoisyProgram(self.backend, circuit, gst)
        self.entries[key] = program
        while len(self.entries) > self.max_entries:
            self.entries.pop(next(iter(self.entries)))
        return program, False

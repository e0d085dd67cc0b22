"""The compiled-program layer shared by every execution path.

A :class:`CompiledNoisyProgram` is everything about one scheduled circuit on
one backend that is invariant across executions: the active-qubit set and
output resolution, the time-ordered event template with gate unitaries and
noise channels pre-resolved into engine-ready tensors, and the memoized
idle-window *variants* (unprotected, or protected by one DD protocol).

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate, gate_matrix, rx_matrix, rz_matrix
from ..core.gst import GateSequenceTable, IdleWindow
from ..dd.insertion import DDAssignment, DDPlan
from ..dd.sequences import get_sequence
from ..noise.model import NoiseOp
from ..simulators import channels
from ..simulators.stabilizer import is_tableau_supported
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
# Process-level caches (gate unitaries, parametric rotations)
# ---------------------------------------------------------------------------

#: All process-level caches are LRU-bounded: rotation angles and gate params
#: are continuous, so a long-running sweep across calibration cycles/devices
#: would otherwise grow them without bound.
_GATE_MATRIX_CACHE: Dict[Tuple[str, Tuple[float, ...]], np.ndarray] = {}
_ROTATION_CACHE: Dict[Tuple[str, float], np.ndarray] = {}
_MATRIX_CACHE_MAX_ENTRIES = 8192


def _lru_get(cache: Dict, key: object, build) -> np.ndarray:
    """Bounded-LRU lookup shared by the process-level matrix caches."""
    value = cache.get(key)
    if value is None:
        value = build()
        value.setflags(write=False)
    else:
        del cache[key]  # LRU refresh (re-inserted below)
    cache[key] = value
    while len(cache) > _MATRIX_CACHE_MAX_ENTRIES:
        cache.pop(next(iter(cache)))
    return value


def cached_gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Process-level memoized :func:`~repro.circuits.gates.gate_matrix`."""
    key = (name, tuple(float(p) for p in params))
    return _lru_get(_GATE_MATRIX_CACHE, key, lambda: gate_matrix(name, params))


def _cached_rotation(kind: str, angle: float) -> np.ndarray:
    key = (kind, float(angle))
    return _lru_get(
        _ROTATION_CACHE,
        key,
        lambda: rz_matrix(angle) if kind == "rz" else rx_matrix(angle),
    )


def process_cache_stats() -> Dict[str, int]:
    """Sizes of the process-level caches (useful for diagnostics/tests)."""
    return {
        "gate_matrices": len(_GATE_MATRIX_CACHE),
        "rotations": len(_ROTATION_CACHE),
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
    """A noise/gate operation pre-resolved into engine-ready tensors.

    ``superop`` is the channel's superoperator ``sum_m K_m (x) conj(K_m)``
    reshaped into a ``(2,)*(4k)`` tensor whose legs are ordered
    ``(row_out..., col_out..., row_in..., col_in...)``: the density-matrix
    engine applies any channel (unitary, Kraus, Gaussian dephasing) as ONE
    BLAS-backed contraction over the row+col legs of the whole batch, instead
    of one Python-level Kraus loop per job.

    ``gate`` is set for program gates (the ideal circuit), ``noise`` for
    noise operations — the stabilizer engine uses them to rebuild the
    Clifford circuit and to Pauli-twirl the noise.
    """

    kind: str                       # "unitary" | "kraus" | "gaussian"
    positions: Tuple[int, ...]      # active-space qubit positions
    tensor: Optional[np.ndarray] = None        # unitary tensor (2,)*2k
    kraus_stack: Optional[np.ndarray] = None   # (m,) + (2,)*2k
    std: float = 0.0                           # gaussian_phase std-dev
    superop: Optional[np.ndarray] = None       # (2,)*(4k) superoperator
    # mixed-unitary decomposition for the trajectory engine:
    mixed_cumulative: Optional[np.ndarray] = None
    mixed_unitaries: Optional[List[Optional[np.ndarray]]] = None
    # provenance, used by the stabilizer fast path:
    gate: Optional[Gate] = None
    noise: Optional[NoiseOp] = None
    # lazily computed Pauli-twirl of the channel (probabilities, x-bits, z-bits)
    _twirl: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def kraus_matrices(self) -> List[np.ndarray]:
        """The channel's Kraus operators as plain ``(2^k, 2^k)`` matrices."""
        k = len(self.positions)
        dim = 2 ** k
        if self.kind == "unitary":
            return [np.asarray(self.tensor, dtype=complex).reshape(dim, dim)]
        if self.kind == "gaussian":
            lam = 1.0 - math.exp(-(self.std ** 2))
            return [np.asarray(m, dtype=complex) for m in channels.phase_damping(min(1.0, lam))]
        return [
            np.asarray(self.kraus_stack[i], dtype=complex).reshape(dim, dim)
            for i in range(self.kraus_stack.shape[0])
        ]


def _as_op_tensor(matrix: np.ndarray) -> np.ndarray:
    k = int(round(math.log2(matrix.shape[0])))
    return np.ascontiguousarray(matrix, dtype=complex).reshape((2,) * (2 * k))


def _superop_tensor(kraus: Sequence[np.ndarray]) -> np.ndarray:
    dim = kraus[0].shape[0]
    total = np.zeros((dim * dim, dim * dim), dtype=complex)
    for operator in kraus:
        operator = np.asarray(operator, dtype=complex)
        total += np.kron(operator, operator.conj())
    k = int(round(math.log2(dim)))
    return total.reshape((2,) * (4 * k))


#: Process-level memo of resolved noise ops, keyed by channel content and
#: active-space positions.  Identical channels recur constantly (every CNOT
#: on one link shares a depolarizing channel; idle windows repeat variants),
#: and resolving one means building superoperator tensors — worth sharing
#: across events AND across compiled programs.  Shared instances also share
#: their lazily-computed Pauli twirl.  LRU-bounded: sweeps across many
#: devices / calibration cycles produce unboundedly many distinct channels
#: (continuous angles, per-cycle Kraus weights), and each entry carries
#: kilobytes of tensors.
_RESOLVED_OP_CACHE: Dict[object, ResolvedOp] = {}
_RESOLVED_OP_CACHE_MAX_ENTRIES = 8192


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
    if key is not None:
        cached = _RESOLVED_OP_CACHE.get(key)
        if cached is None:
            cached = _resolve_noise_op_uncached(op, positions)
        else:
            del _RESOLVED_OP_CACHE[key]  # LRU refresh (re-inserted below)
        _RESOLVED_OP_CACHE[key] = cached
        while len(_RESOLVED_OP_CACHE) > _RESOLVED_OP_CACHE_MAX_ENTRIES:
            _RESOLVED_OP_CACHE.pop(next(iter(_RESOLVED_OP_CACHE)))
        return cached
    return _resolve_noise_op_uncached(op, positions)


def _resolve_noise_op_uncached(op: NoiseOp, positions: Tuple[int, ...]) -> ResolvedOp:
    if op.kind in ("rz", "rx"):
        matrix = _cached_rotation(op.kind, float(op.payload))
        return ResolvedOp(
            kind="unitary",
            positions=positions,
            tensor=_as_op_tensor(matrix),
            superop=_superop_tensor([matrix]),
            noise=op,
        )
    if op.kind == "gaussian_phase":
        sigma = float(op.payload)
        lam = 1.0 - math.exp(-(sigma ** 2))
        dm_kraus = channels.phase_damping(min(1.0, lam))
        return ResolvedOp(
            kind="gaussian",
            positions=positions,
            std=sigma,
            superop=_superop_tensor(dm_kraus),
            noise=op,
        )
    kraus = [np.asarray(k, dtype=complex) for k in op.payload]  # type: ignore[union-attr]
    if len(kraus) == 1:
        return ResolvedOp(
            kind="unitary",
            positions=positions,
            tensor=_as_op_tensor(kraus[0]),
            superop=_superop_tensor(kraus),
            noise=op,
        )
    resolved = ResolvedOp(
        kind="kraus",
        positions=positions,
        kraus_stack=np.stack([_as_op_tensor(k) for k in kraus]),
        superop=_superop_tensor(kraus),
        noise=op,
    )
    mixed = mixed_unitary_form(kraus)
    if mixed is not None:
        probabilities, unitaries = mixed
        resolved.mixed_cumulative = np.cumsum(probabilities)
        resolved.mixed_unitaries = [
            None if u is None else _as_op_tensor(u) for u in unitaries
        ]
    return resolved


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
        self.concurrent = [
            gst.concurrent_cnots(w.start, w.end, exclude_qubit=w.qubit)
            for w in self.windows
        ]

        # Event template: gate events are fixed, each idle window is a
        # placeholder slot resolved per job variant at execution time.
        entries: List[Tuple[float, int, int, Tuple[str, object]]] = []
        order = 0
        clifford = True
        noise_model = backend.gate_noise
        for scheduled in gst.scheduled_gates:
            gate = scheduled.gate
            if gate.is_measurement or gate.is_barrier or gate.is_delay:
                continue
            clifford = clifford and is_tableau_supported(gate)
            positions = tuple(self.index_of[q] for q in gate.qubits)
            matrix = cached_gate_matrix(gate.name, gate.params)
            resolved = ResolvedOp(
                kind="unitary",
                positions=positions,
                tensor=_as_op_tensor(matrix),
                superop=_superop_tensor([matrix]),
                gate=gate,
            )
            entries.append((scheduled.start, GATE_EVENT_PRIORITY, order, ("op", resolved)))
            order += 1
            for op in noise_model.gate_noise(gate):
                entries.append(
                    (
                        scheduled.start,
                        GATE_NOISE_PRIORITY,
                        order,
                        ("op", _resolve_noise_op(op, self.index_of)),
                    )
                )
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
        self._window_ops: Dict[Tuple[int, object], List[ResolvedOp]] = {}
        self._custom_trains: Dict[object, object] = {}
        self._plan_stats: Dict[Tuple[str, frozenset], Tuple[int, int]] = {}
        #: Scratch space for engines to memoize program-derived state
        #: (e.g. the stabilizer engine's ideal spectrum and noise masks).
        self.engine_cache: Dict[str, object] = {}

    @property
    def num_active(self) -> int:
        return len(self.active)

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

    # -- DD plans ------------------------------------------------------

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

    def window_ops(self, widx: int, variant: object) -> List[ResolvedOp]:
        """Noise ops of one idle window under one variant.

        ``variant`` is ``"skip"`` (idle noise disabled), ``None`` (no DD), a
        protocol name (the memoized default train), or a custom-train key
        registered by :meth:`plan_variants`.
        """
        if variant == "skip":
            return []
        key = (widx, variant)
        ops = self._window_ops.get(key)
        if ops is None:
            window = self.windows[widx]
            if variant is None:
                train = None
            elif isinstance(variant, tuple):
                train = self._custom_trains[variant]
            else:
                train = self.train_for(variant, widx)
            effect = self.backend.idle_noise.window_effect(
                window.qubit, window.duration, self.concurrent[widx], train
            )
            ops = [_resolve_noise_op(op, self.index_of) for op in effect.noise_ops()]
            self._window_ops[key] = ops
        return ops

    def protected_windows(self, assignment: DDAssignment, sequence_name: str) -> List[bool]:
        return [
            assignment.enabled(w.qubit) and self.train_for(sequence_name, widx) is not None
            for widx, w in enumerate(self.windows)
        ]

    def assignment_variants(
        self,
        assignment: Optional[DDAssignment],
        dd_sequence: str,
        include_idle_noise: bool = True,
    ) -> List[object]:
        """Per-window variant key for one DD assignment."""
        if not include_idle_noise:
            return ["skip"] * len(self.windows)
        assignment = assignment or DDAssignment.none()
        sequence_name = self.sequence(dd_sequence).name
        protected = self.protected_windows(assignment, sequence_name)
        return [sequence_name if p else None for p in protected]

    def plan_variants(self, dd_plan: DDPlan, include_idle_noise: bool = True) -> List[object]:
        """Per-window variant key for an explicit :class:`~repro.dd.insertion.DDPlan`.

        Plans built with the protocol's default window threshold reuse the
        memoized protocol variants; plans with custom trains (e.g. a custom
        ``min_window_ns``) register their trains under dedicated keys so their
        window effects are memoized too.
        """
        if not include_idle_noise:
            return ["skip"] * len(self.windows)
        variants: List[object] = []
        for widx, window in enumerate(self.windows):
            train = dd_plan.train_for(window)
            if train is None:
                variants.append(None)
                continue
            default = self.train_for(dd_plan.sequence_name, widx)
            if (
                default is not None
                and default.num_pulses == train.num_pulses
                and abs(default.average_spacing - train.average_spacing) < 1e-9
            ):
                variants.append(dd_plan.sequence_name)
                continue
            key = ("train", widx, train.num_pulses, round(train.average_spacing, 6))
            self._custom_trains[key] = train
            variants.append(key)
        return variants

    def plan_stats(self, assignment: DDAssignment, sequence_name: str) -> Tuple[int, int]:
        """(total DD pulses, protected window count) of one candidate plan."""
        relevant = frozenset(
            q for q in assignment.qubits if any(w.qubit == q for w in self.windows)
        )
        key = (sequence_name, relevant)
        stats = self._plan_stats.get(key)
        if stats is None:
            pulses = 0
            protected = 0
            for widx, window in enumerate(self.windows):
                if window.qubit not in relevant:
                    continue
                train = self.train_for(sequence_name, widx)
                if train is not None:
                    pulses += train.num_pulses
                    protected += 1
            stats = (pulses, protected)
            self._plan_stats[key] = stats
        return stats


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

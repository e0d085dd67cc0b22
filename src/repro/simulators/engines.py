"""Pluggable execution engines over a compiled noisy program.

Every execution — single runs and batches of
:class:`~repro.hardware.execution.NoisyExecutor` alike — routes through the
engines registered here.  An engine consumes a
:class:`~repro.hardware.program.CompiledNoisyProgram` (the shared event
template with pre-resolved operators) plus per-job window variants, and
returns one active-space probability vector per job.

Four engines are registered by default:

* ``"density_matrix"`` — exact mixed-state evolution; channels are applied as
  superoperators (each built on first use and memoized on its op), one
  BLAS-backed contraction per event over a stack holding one state per
  distinct variant history (jobs share a state until their variants differ).
* ``"trajectories"`` — vectorized Monte-Carlo unravelling on statevectors;
  every trajectory draws from its own seeded stream via the single-uniform
  :func:`choose_branch` protocol, making results independent of batching.
* ``"stabilizer"`` — the Clifford fast path: when every gate of the compiled
  program is exactly representable on the CHP tableau (Clifford decoys, the
  Figure 8 exhaustive-DD sweep), the ideal output distribution is computed on
  the stabilizer engine and every noise channel is **Pauli-twirled** into a
  stochastic Pauli channel.  Because Pauli errors propagate through Clifford
  circuits to Pauli errors, and only the X-component of a propagated error
  changes computational-basis probabilities, the noisy distribution is the
  ideal one convolved (over GF(2)^n) with the propagated error-mask
  distribution — computed *exactly* via a Walsh–Hadamard transform, with no
  Monte-Carlo sampling and no 4^n density matrix.
* ``"stabilizer_frames"`` — the *device-scale* Clifford path: the same
  Pauli-twirled model, but the exact 2^n convolution is replaced by seeded
  Pauli-*frame* sampling (one twirled branch per event per trajectory,
  XOR-propagated on bit-packed words), and the result is a **sparse**
  output-space distribution.  Memory scales with
  ``trajectories * ceil(qubits / 64)`` uint64 words instead of 2^n, which is
  what lets a 127-qubit mirror workload execute in milliseconds.

Both Clifford engines run on the bit-packed symplectic kernels of
:mod:`repro.simulators.symplectic`, their only implementation; the test
suite's boolean-row oracle (``tests/oracle``) pins them bit for bit.

Engine selection policy lives here too (:func:`select_engine`): ``"auto"``
picks the stabilizer fast path for Clifford-only programs, the dense density
matrix up to :data:`DM_QUBIT_LIMIT` active qubits, and trajectories beyond; with
a memory budget, Clifford programs too large for every dense state fall back
to the frame engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import symplectic
from .stabilizer import affine_points
from .statevector import SimulationError

__all__ = [
    "EngineJob",
    "ExecutionEngine",
    "DensityMatrixEngine",
    "TrajectoryEngine",
    "StabilizerEngine",
    "StabilizerFrameEngine",
    "SparseDistribution",
    "available_engines",
    "get_engine",
    "register_engine",
    "select_engine",
    "choose_branch",
    "pauli_twirl_probabilities",
    "STABILIZER_AUTO_QUBIT_LIMIT",
    "DM_QUBIT_LIMIT",
]

#: Beyond this many active qubits ``"auto"`` stops preferring the stabilizer
#: fast path (its 2^n Walsh–Hadamard convolution stops being the cheap option).
STABILIZER_AUTO_QUBIT_LIMIT = 12

#: Beyond this many active qubits ``"auto"`` stops preferring the dense
#: density matrix (its 4^n state) and falls to trajectories.
DM_QUBIT_LIMIT = 10


def choose_branch(rng: np.random.Generator, cumulative: np.ndarray) -> int:
    """Pick a branch index from cumulative probabilities with ONE uniform draw.

    The single-draw protocol (rather than ``Generator.choice``) is shared by
    every stochastic engine so that all of them consume per-trajectory
    streams identically.
    """
    u = rng.random()
    index = int(np.searchsorted(cumulative, u, side="right"))
    return min(index, len(cumulative) - 1)


@dataclass
class EngineJob:
    """Per-job execution inputs handed to an engine.

    ``variants`` holds one window variant per idle window of the program:
    ``None`` (unprotected) or a DD protocol name (see
    :meth:`~repro.hardware.program.CompiledNoisyProgram.window_ops`);
    ``streams`` the per-trajectory RNG streams (only materialized for engines
    with ``needs_streams``).  ``outputs`` gives the job's output qubits as
    *active-space positions* in output-bit order — dense engines ignore it
    (the pipeline marginalizes their full vectors), sparse engines resolve
    outputs themselves because a 2^n vector never exists.
    """

    variants: List[Optional[str]]
    streams: Optional[List[np.random.Generator]] = None
    outputs: Optional[Tuple[int, ...]] = None


@dataclass
class SparseDistribution:
    """Sparse *output-space* distribution returned by frame-based engines.

    ``probabilities`` maps output bitstrings to probability mass.  Unlike the
    dense per-active-qubit vectors, the support never exceeds the trajectory
    count, so 100+ qubit programs stay cheap.  ``readout_applied`` records
    that assignment errors were already folded in per frame — the execution
    pipeline must not apply them a second time.  ``metadata`` carries
    engine-computed exact quantities (e.g. the frame engine's
    ``flip_free_probability``: the probability that a run suffers *no*
    bit-flip error at all, which stays exactly computable when the sampled
    success probability is below the frame resolution) and is merged into
    :class:`~repro.hardware.execution.ExecutionResult` metadata.
    """

    probabilities: Dict[str, float]
    num_bits: int
    #: Sparse engines must fold readout assignment errors in themselves (a
    #: dense readout pass over the output space does not exist at their
    #: scale); the pipeline *rejects* sparse results that arrive without it.
    #: Defaults to False so an engine that forgets readout entirely is caught
    #: by the guard instead of silently skipping measurement errors.
    readout_applied: bool = False
    metadata: Dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Batched tensor contractions (shared by the dense engines)
# ---------------------------------------------------------------------------


def _apply_operator(state: np.ndarray, op_tensor: np.ndarray, leg_axes: Sequence[int]) -> np.ndarray:
    """Contract a k-leg operator with the given state axes, axes kept in place.

    Implemented with ``tensordot`` (transpose + one BLAS matmul) rather than
    ``einsum``, whose generic iterator is an order of magnitude slower on
    these many-small-axis tensors.
    """
    k = len(leg_axes)
    nd = state.ndim
    result = np.tensordot(op_tensor, state, axes=(list(range(k, 2 * k)), list(leg_axes)))
    # tensordot puts the operator's output legs first; move each back to the
    # axis it replaced.
    remaining = [a for a in range(nd) if a not in leg_axes]
    current = {axis: i for i, axis in enumerate(list(leg_axes) + remaining)}
    perm = [current[a] for a in range(nd)]
    return np.transpose(result, perm)


def _apply_phase_angles(state: np.ndarray, angles: np.ndarray, axis: int) -> np.ndarray:
    """Apply per-batch-element RZ(angle) to one statevector leg (diagonal)."""
    stacked = np.stack(
        [np.exp(-0.5j * angles), np.exp(0.5j * angles)], axis=-1
    )
    shape = list(angles.shape) + [1] * (state.ndim - angles.ndim)
    shape[axis] = 2
    return state * stacked.reshape(shape)


# ---------------------------------------------------------------------------
# Engine base + registry
# ---------------------------------------------------------------------------


class ExecutionEngine:
    """Interface of one execution engine over compiled programs."""

    name: str = "base"
    #: True if the engine consumes per-trajectory seeded streams; executors
    #: only materialize the streams when an engine asks for them.  A
    #: stream-free engine (``False``) promises that a job's active-space
    #: vector depends only on the program and ``job.variants``, never on
    #: ``outputs``, ``trajectories``, the seed or the other jobs of its
    #: batch (``density_matrix`` and ``stabilizer`` hold to it): the
    #: execution pipeline runs it once per distinct variant vector and
    #: memoizes the vector on the program.  Stream engines
    #: (``trajectories``, ``stabilizer_frames``) run on every call.
    needs_streams: bool = False

    def supports(self, program) -> bool:
        """True if the engine can execute this compiled program."""
        return True

    def state_bytes(self, num_active: int, trajectories: int) -> int:
        """Per-job working-state size, used for memory-budget sub-batching."""
        raise NotImplementedError

    def run(self, program, jobs: Sequence[EngineJob], trajectories: int) -> List[np.ndarray]:
        """Execute all jobs, returning one active-space probability vector each."""
        raise NotImplementedError


_ENGINES: Dict[str, ExecutionEngine] = {}


def register_engine(engine: ExecutionEngine) -> ExecutionEngine:
    """Register an engine instance under its ``name`` (latest wins)."""
    _ENGINES[engine.name] = engine
    return engine


def available_engines() -> List[str]:
    """Sorted names of every registered engine."""
    return sorted(_ENGINES)


def get_engine(name: str) -> ExecutionEngine:
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine '{name}' (registered engines: "
            f"{', '.join(available_engines())})"
        ) from None


def select_engine(
    engine: str,
    num_active: int,
    clifford: bool = False,
    memory_budget_bytes: Optional[int] = None,
    trajectories: int = 1,
) -> str:
    """The one engine-selection policy shared by every execution path.

    ``"auto"`` resolves to the stabilizer fast path when the compiled program
    is Clifford-only (and within :data:`STABILIZER_AUTO_QUBIT_LIMIT` active
    qubits, where the 2^n convolution is the cheap option), otherwise to
    the dense density matrix up to :data:`DM_QUBIT_LIMIT` active qubits, and to
    the trajectory engine beyond.  ``"auto_dense"`` applies the same policy
    but never picks the stabilizer engine — for *measurement* contexts (final
    reported fidelities) where the Pauli-twirl approximation is not wanted,
    as opposed to *scoring/ranking* contexts (decoy scoring, DD sweeps) where
    it is.  Explicit engine names are validated against the registry.

    ``memory_budget_bytes`` threads the executor's active-space memory budget
    into the choice: among the preference order above, the first engine whose
    *single-job* working state (``ExecutionEngine.state_bytes`` at
    ``num_active`` / ``trajectories``) fits the budget wins.  This is what
    keeps the auto policy viable at the 127-qubit device scale — a routed
    program whose active space outgrows the dense engines degrades to
    trajectories, a Clifford program whose trajectory stack would blow the
    budget rides the 2^n stabilizer spectrum beyond the nominal auto limit,
    and a Clifford program too large for even that spectrum (the 48+ qubit
    mirror workloads) lands on the sparse ``stabilizer_frames`` engine, whose
    state is ``trajectories * n`` bits and therefore always fits.  If nothing
    fits, the nominally preferred engine is returned unchanged (executors
    clamp oversized sub-batches to one job), so a budget never changes which
    programs are *runnable*, only which engine runs them.
    """
    if engine not in ("auto", "auto_dense"):
        get_engine(engine)  # raises with the registered names listed
        return engine
    stabilizer_ok = engine == "auto" and clifford and "stabilizer" in _ENGINES
    candidates = []
    if stabilizer_ok and num_active <= STABILIZER_AUTO_QUBIT_LIMIT:
        candidates.append("stabilizer")
    if num_active <= DM_QUBIT_LIMIT:
        candidates.append("density_matrix")
    candidates.append("trajectories")
    if stabilizer_ok and "stabilizer" not in candidates:
        # Last resort beyond the nominal auto limit: the stabilizer state
        # grows 2^n, not 16^n, so it may be the only engine inside budget.
        candidates.append("stabilizer")
    if stabilizer_ok and "stabilizer_frames" in _ENGINES:
        # Final fallback at device scale: frame sampling never needs a dense
        # state, so Clifford programs stay executable at any width.
        candidates.append("stabilizer_frames")
    if memory_budget_bytes is not None:
        for name in candidates:
            state = get_engine(name).state_bytes(num_active, max(1, int(trajectories)))
            if state <= memory_budget_bytes:
                return name
    return candidates[0]


def _window_groups(jobs: Sequence[EngineJob], widx: int) -> Dict[Optional[str], List[int]]:
    """Group job indices by the variant they use for window ``widx``."""
    groups: Dict[Optional[str], List[int]] = {}
    for j, job in enumerate(jobs):
        groups.setdefault(job.variants[widx], []).append(j)
    return groups


# ---------------------------------------------------------------------------
# Density-matrix engine
# ---------------------------------------------------------------------------


class DensityMatrixEngine(ExecutionEngine):
    """Exact mixed-state evolution, one state row per distinct variant history.

    The jobs of a batch hold identical states until the first idle window
    whose variants differ among them, so the engine evolves a ``(rows,
    4^n)`` stack instead of one state per job: every job starts on one row,
    and at each window slot a row splits only where its jobs' variants
    differ.  Rows never exceed the job count, so the executor's per-job
    memory-budget sizing still bounds the stack.  The jobs of one row get
    the same read-only probability vector.

    Sharing rows keeps every job's bits: a batched contraction gives each
    row the result that row gets alone (``tests/test_engines.py`` pins
    this on ``_apply_operator``), except for an op spanning the whole
    active space, which leaves one GEMM column per row; those are
    contracted one row at a time, like a single job.
    """

    name = "density_matrix"
    needs_streams = False

    def state_bytes(self, num_active: int, trajectories: int) -> int:
        return 16 * (4 ** num_active)

    def run(self, program, jobs, trajectories):
        if not jobs:
            return []
        n = program.num_active
        state = np.zeros((1,) + (2,) * (2 * n), dtype=complex)
        state[(0,) + (0,) * (2 * n)] = 1.0
        row_of = [0] * len(jobs)

        def apply_op(target: np.ndarray, op) -> np.ndarray:
            legs = [1 + p for p in op.positions] + [1 + n + p for p in op.positions]
            if len(op.positions) < n or target.shape[0] == 1:
                return _apply_operator(target, op.superop, legs)
            # One GEMM column per row: BLAS rounds a one-column product
            # differently from a wider one, so match the single-job bits.
            return np.concatenate(
                [_apply_operator(target[r : r + 1], op.superop, legs) for r in range(len(target))]
            )

        for kind, payload in program.template:
            if kind == "op":
                state = apply_op(state, payload)
                continue
            widx: int = payload
            # New rows, numbered in job order: one per (parent row, variant).
            splits: Dict[Tuple[int, Optional[str]], int] = {}
            for j, job in enumerate(jobs):
                row_of[j] = splits.setdefault((row_of[j], job.variants[widx]), len(splits))
            parents = [row for row, _ in splits]
            if parents != list(range(len(state))):
                state = state[parents]
            rows_of_variant: Dict[Optional[str], List[int]] = {}
            for (_, variant), row in splits.items():
                rows_of_variant.setdefault(variant, []).append(row)
            for variant, rows in rows_of_variant.items():
                ops = program.window_ops(widx, variant)
                if not ops:
                    continue
                if len(rows) == len(state):
                    for op in ops:
                        state = apply_op(state, op)
                else:
                    index = np.array(rows)
                    sub = state[index]
                    for op in ops:
                        sub = apply_op(sub, op)
                    state[index] = sub

        # Diagonal, clipped and renormalised exactly like the test oracle's
        # DensityMatrixSimulator.probabilities() (tests/oracle/density_matrix.py),
        # once per row; the jobs of a row share its read-only vector.
        diag_labels = [0] + list(range(1, n + 1)) + list(range(1, n + 1))
        diag = np.real(np.einsum(state, diag_labels, [0] + list(range(1, n + 1))))
        diag = diag.reshape(len(state), 2 ** n).copy()
        diag[diag < 0] = 0.0
        row_probs = []
        for row in diag:
            total = row.sum()
            if total <= 0:
                raise SimulationError("density matrix has vanished (all-zero diagonal)")
            probs = row / total
            probs.flags.writeable = False
            row_probs.append(probs)
        return [row_probs[row] for row in row_of]


# ---------------------------------------------------------------------------
# Trajectory engine
# ---------------------------------------------------------------------------


class TrajectoryEngine(ExecutionEngine):
    """Vectorized Monte-Carlo unravelling with per-trajectory seeded streams."""

    name = "trajectories"
    needs_streams = True

    def state_bytes(self, num_active: int, trajectories: int) -> int:
        return 16 * trajectories * (2 ** num_active)

    def run(self, program, jobs, trajectories):
        n = program.num_active
        J = len(jobs)
        T = trajectories
        streams = [job.streams for job in jobs]
        state = np.zeros((J, T) + (2,) * n, dtype=complex)
        state[(slice(None), slice(None)) + (0,) * n] = 1.0

        for kind, payload in program.template:
            if kind == "op":
                state = self._apply_sv_op(state, payload, list(range(J)), streams, offset=2)
                continue
            widx: int = payload
            for variant, members in _window_groups(jobs, widx).items():
                ops = program.window_ops(widx, variant)
                if not ops:
                    continue
                for op in ops:
                    state = self._apply_sv_op(state, op, members, streams, offset=2)

        flat = state.reshape(J, T, -1)
        probs = np.abs(flat) ** 2
        probs = probs / probs.sum(axis=2, keepdims=True)
        return [probs[j].sum(axis=0) / T for j in range(J)]

    def _apply_sv_op(
        self,
        state: np.ndarray,
        op,
        members: List[int],
        streams: List[List[np.random.Generator]],
        offset: int,
    ) -> np.ndarray:
        """Apply one operator to the (members x trajectories) statevectors."""
        J, T = state.shape[0], state.shape[1]
        axes = [offset + p for p in op.positions]
        whole = len(members) == J

        if op.kind == "unitary":
            if whole:
                return _apply_operator(state, op.tensor, axes)
            index = np.array(members)
            sub = state[index]
            state[index] = _apply_operator(sub, op.tensor, axes)
            return state

        if op.kind == "gaussian":
            angles = np.empty((len(members), T), dtype=float)
            for row, j in enumerate(members):
                for t in range(T):
                    angles[row, t] = streams[j][t].normal(0.0, op.std)
            if whole:
                return _apply_phase_angles(state, angles, axes[0])
            index = np.array(members)
            sub = state[index]
            state[index] = _apply_phase_angles(sub, angles, axes[0])
            return state

        # Stochastic Kraus unravelling.
        index = np.array(members)
        sub = state if whole else state[index]
        sub_axes = axes
        if op.mixed is not None:
            cumulative, unitaries = op.mixed
            choices = np.empty((len(members), T), dtype=np.int64)
            for row, j in enumerate(members):
                row_streams = streams[j]
                for t in range(T):
                    choices[row, t] = choose_branch(row_streams[t], cumulative)
            for branch, unitary in enumerate(unitaries):
                if unitary is None:
                    continue
                mask = choices == branch
                if not mask.any():
                    continue
                picked = sub[mask]  # (N,) + legs
                picked_axes = [a - 1 for a in sub_axes]
                sub[mask] = _apply_operator(picked, unitary, picked_axes)
            if whole:
                return sub
            state[index] = sub
            return state

        # Generic state-dependent branches (e.g. amplitude damping).
        m = op.kraus_stack.shape[0]
        N = len(members)
        candidates = np.stack(
            [_apply_operator(sub, op.kraus_stack[b], sub_axes) for b in range(m)]
        )  # (m, N, T) + legs
        flat = candidates.reshape(m, N, T, -1)
        weights = np.einsum("mntd,mntd->mnt", flat, np.conj(flat)).real  # (m, N, T)
        totals = weights.sum(axis=0)  # (N, T)
        safe_totals = np.where(totals > 0, totals, 1.0)
        cumulative = np.cumsum(weights / safe_totals, axis=0)  # (m, N, T)
        choices = np.zeros((N, T), dtype=np.int64)
        keep = np.zeros((N, T), dtype=bool)
        for row, j in enumerate(members):
            row_streams = streams[j]
            for t in range(T):
                # A vanished channel keeps the state AND consumes no draw,
                # mirroring the single-job engine semantics.
                if totals[row, t] <= 0:
                    keep[row, t] = True
                    continue
                choices[row, t] = choose_branch(row_streams[t], cumulative[:, row, t])
        n_idx, t_idx = np.meshgrid(np.arange(N), np.arange(T), indexing="ij")
        selected = flat[choices, n_idx, t_idx, :]  # (N, T, D)
        chosen_weights = weights[choices, n_idx, t_idx]
        norms = np.sqrt(np.where(chosen_weights > 0, chosen_weights, 1.0))
        selected = selected / norms[..., None]
        keep |= chosen_weights <= 0
        if keep.any():
            original = sub.reshape(N, T, -1)
            selected[keep] = original[keep]
        new_sub = selected.reshape(sub.shape)
        if whole:
            return new_sub
        state[index] = new_sub
        return state


# ---------------------------------------------------------------------------
# Stabilizer (Clifford fast path) engine
# ---------------------------------------------------------------------------

#: Single-qubit Paulis as (matrix, x-bit, z-bit) in symplectic convention.
_PAULI_1Q: List[Tuple[np.ndarray, int, int]] = [
    (np.eye(2, dtype=complex), 0, 0),
    (np.array([[0, 1], [1, 0]], dtype=complex), 1, 0),
    (np.array([[0, -1j], [1j, 0]], dtype=complex), 1, 1),
    (np.array([[1, 0], [0, -1]], dtype=complex), 0, 1),
]

#: Stacked k-qubit Pauli bases: k -> (matrices (4^k, 2^k, 2^k), xbits, zbits).
_PAULI_BASIS_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _pauli_basis(k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    basis = _PAULI_BASIS_CACHE.get(k)
    if basis is None:
        matrices, xrows, zrows = [], [], []
        for labels in np.ndindex(*([4] * k)):
            pauli = np.eye(1, dtype=complex)
            xbits, zbits = [], []
            for label in labels:
                matrix, x, z = _PAULI_1Q[label]
                pauli = np.kron(pauli, matrix)
                xbits.append(x)
                zbits.append(z)
            matrices.append(pauli)
            xrows.append(xbits)
            zrows.append(zbits)
        basis = (
            np.stack(matrices),
            np.array(xrows, dtype=bool),
            np.array(zrows, dtype=bool),
        )
        _PAULI_BASIS_CACHE[k] = basis
    return basis


def pauli_twirl_probabilities(
    kraus: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pauli-twirl a channel: probabilities over the 4^k Pauli strings.

    Expanding each Kraus operator in the Pauli basis, ``K_m = sum_P c_mP P``,
    the twirled channel applies Pauli ``P`` with probability
    ``p_P = sum_m |c_mP|^2`` — always a valid distribution.  Returns
    ``(probs, xbits, zbits)`` for the Paulis with non-negligible weight,
    where ``xbits``/``zbits`` are ``(branches, k)`` boolean arrays.
    """
    stack = np.stack([np.asarray(op, dtype=complex) for op in kraus])  # (m, d, d)
    dim = stack.shape[1]
    k = int(round(math.log2(dim)))
    paulis, xrows, zrows = _pauli_basis(k)
    # c_mP = tr(P K_m) / dim for every Pauli at once (one einsum).
    coefficients = np.einsum("pij,mji->pm", paulis, stack) / dim
    weights = (np.abs(coefficients) ** 2).sum(axis=1)
    keep = weights > 1e-15
    probs = weights[keep]
    return probs / probs.sum(), xrows[keep], zrows[keep]


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh–Hadamard transform (self-inverse up to 1/2^n)."""
    out = values.astype(float).copy()
    h = 1
    length = out.shape[0]
    while h < length:
        out = out.reshape(-1, 2, h)
        top = out[:, 0, :] + out[:, 1, :]
        bottom = out[:, 0, :] - out[:, 1, :]
        out = np.stack([top, bottom], axis=1).reshape(-1)
        h *= 2
    return out


def _bit_parity(values: np.ndarray) -> np.ndarray:
    """Parity of the set bits of each (uint64) entry."""
    values = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        values ^= values >> shift
    return (values & 1).astype(bool)


class StabilizerEngine(ExecutionEngine):
    """Exact Clifford fast path: tableau + Pauli-twirled noise convolution.

    The model replaces every noise channel by its Pauli twirl (exact for the
    depolarizing gate errors, phase damping and quasi-static Gaussian
    dephasing; an approximation for coherent rz/rx rotations and the
    non-unital part of T1 decay).  Within that model the returned
    distribution is exact — no trajectories are sampled — so DD-candidate
    rankings are deterministic.
    """

    name = "stabilizer"
    needs_streams = False

    def supports(self, program) -> bool:
        return bool(getattr(program, "is_clifford", False))

    def state_bytes(self, num_active: int, trajectories: int) -> int:
        return 8 * (2 ** num_active)

    # -- public entry --------------------------------------------------

    def run(self, program, jobs, trajectories):
        if not self.supports(program):
            raise SimulationError(
                "the stabilizer engine requires a Clifford-only compiled program;"
                " use engine='auto', 'density_matrix' or 'trajectories'"
            )
        n = program.num_active
        needed = {(widx, variant) for job in jobs for widx, variant in enumerate(job.variants)}
        cache = program.engine_cache.get(self.name)
        if cache is None:
            cache = self._build_base(program)
            program.engine_cache[self.name] = cache
        # Incremental: only spectra of variants never seen before are computed
        # (through the memoized per-window suffix conjugation maps); the ideal
        # spectrum and the shared gate-noise spectrum are never rebuilt.
        missing = sorted(needed - cache["built"], key=repr)
        if missing:
            self._add_window_variants(program, cache, missing)
            cache["built"].update(missing)

        results = []
        for job in jobs:
            spectrum = cache["shared"].copy()
            for widx, variant in enumerate(job.variants):
                window_spectrum = cache["windows"].get((widx, variant))
                if window_spectrum is not None:
                    spectrum *= window_spectrum
            probs = _fwht(cache["ideal_wht"] * spectrum) / (2 ** n)
            probs[probs < 0] = 0.0
            total = probs.sum()
            if total <= 0:
                raise SimulationError("stabilizer distribution has vanished")
            results.append(probs / total)
        return results

    # -- model construction --------------------------------------------

    def _build_base(self, program) -> Dict[str, object]:
        """The variant-independent part of the model, from the shared table.

        The propagated mask table (:func:`_noise_mask_table`, shared with the
        frame engine) supplies every shared noise event's branch
        probabilities and end-propagated X-masks; here they are convolved
        into one spectrum, alongside the exact ideal distribution (uniform
        on the program's memoized
        :meth:`~repro.hardware.program.CompiledNoisyProgram.ideal_support`).
        """
        n = program.num_active
        table = _noise_mask_table(program)
        shared = np.ones(2 ** n, dtype=float)
        for k, r in zip(table.width.tolist(), table.row.tolist()):  # template order
            group = table.groups[k]
            count = group.counts[r]
            masks = self._pack_masks(group.masks[r, :count], n)
            shared *= self._spectrum(group.probs[r, :count], masks, n)
        base, basis = program.ideal_support()
        weights = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)  # position 0 = MSB
        ideal = np.zeros(2 ** n, dtype=float)
        ideal[affine_points(base @ weights, basis @ weights)] = 0.5 ** basis.shape[0]
        return {
            "ideal_wht": _fwht(ideal),
            "shared": shared,
            "suffix_maps": table.suffix_maps,
            "windows": {},
            "built": set(),
        }

    def _add_window_variants(self, program, cache, pairs) -> None:
        """Spectra of (window, variant) pairs: their ops twirled and masked in
        one :func:`_window_variant_events` pass through the memoized suffix
        maps, then convolved event by event — no template re-walk."""
        events = _window_variant_events(program, cache["suffix_maps"], pairs)
        n = program.num_active
        for i, pair in enumerate(pairs):
            rows = range(events.bounds[i], events.bounds[i + 1])
            if not rows:
                continue
            spectrum = np.ones(2 ** n, dtype=float)
            for e in rows:
                branches = events.counts[e]
                masks = self._pack_masks(events.masks[e, :branches], n)
                spectrum *= self._spectrum(events.probs[e, :branches], masks, n)
            cache["windows"][pair] = spectrum

    @staticmethod
    def _spectrum(probs: np.ndarray, masks: np.ndarray, n: int) -> np.ndarray:
        """Walsh–Hadamard spectrum of one event's mask distribution."""
        indices = np.arange(2 ** n, dtype=np.uint64)
        spectrum = np.zeros(2 ** n, dtype=float)
        for row, mask in enumerate(masks):
            signs = np.where(_bit_parity(indices & mask), -1.0, 1.0)
            spectrum += probs[row] * signs
        return spectrum

    @staticmethod
    def _pack_masks(masks: np.ndarray, n: int) -> np.ndarray:
        """X-mask rows packed into integers (qubit position 0 = MSB).

        This is the dense engine's output boundary: packed symplectic words
        (qubit 0 = LSB of word 0) are unpacked here before re-encoding into
        the MSB-first indices the 2^n spectrum uses.  The engine only runs at
        small n, so the conversion is negligible.
        """
        bits = symplectic.unpack_rows(masks, n)
        weights = (1 << np.arange(n - 1, -1, -1)).astype(np.uint64)
        return (bits.astype(np.uint64) @ weights).astype(np.uint64)


# ---------------------------------------------------------------------------
# Shared per-program structure (stabilizer + stabilizer_frames): the
# twirled-mask propagation and the window-variant builder
# ---------------------------------------------------------------------------


class EventGroup(NamedTuple):
    """A program's shared gate-noise events on ``k`` qubits, as arrays.

    One row per event, in template order.  A row holds the event's kept
    twirl branches left-aligned in Pauli order, padded to ``4**k`` columns.
    """

    probs: np.ndarray   # (rows, 4**k) branch probabilities, 0.0 padded
    cum: np.ndarray     # (rows, 4**k) cumulative probabilities, 2.0 padded
    counts: np.ndarray  # (rows,) kept branches
    masks: np.ndarray   # (rows, 4**k, words) packed end X-masks, zero padded


class MaskTable(NamedTuple):
    """The twirled, end-propagated shared noise of one compiled program.

    Shared event ``e`` (the ``e``-th gate-noise op of the template) is row
    ``row[e]`` of ``groups[width[e]]``.  Window slot ``s`` sits after the
    first ``events_before[s]`` events, and its window's suffix conjugation
    map is ``suffix_maps[slot_windows[s]]``: the x-parts of the images of
    ``X_p`` and ``Z_p`` at the window qubit's position ``p``, as
    ``{p: row}`` dicts.
    """

    groups: Dict[int, EventGroup]
    width: np.ndarray          # (events,) qubits of each event
    row: np.ndarray            # (events,) its row in its group
    flip_free: np.ndarray      # (events,) weight of its zero-mask branches
    shared_flip_free: float    # product of ``flip_free`` in template order
    slot_windows: np.ndarray   # (slots,) window index of each slot
    events_before: np.ndarray  # (slots,) shared events ahead of each slot
    suffix_maps: Dict[int, Tuple[Dict[int, np.ndarray], Dict[int, np.ndarray]]]


def _noise_mask_table(program) -> MaskTable:
    """The program's :class:`MaskTable`, built on first use and memoized.

    The table is the shared substrate of both Clifford engines -- the dense
    ``stabilizer`` engine convolves the masks into 2^n spectra, the sparse
    ``stabilizer_frames`` engine samples them -- and is built once per
    compiled program by :func:`_build_mask_table`.
    """
    cached = program.engine_cache.get("stabilizer_masks")
    if cached is None:
        cached = _build_mask_table(program)
        program.engine_cache["stabilizer_masks"] = cached
    return cached


#: Rows per chunk of the mask-table XOR pass: bounds its transient arrays to
#: ``CHUNK * 4**k * words`` words.
_MASK_CHUNK_ROWS = 4096


def _build_mask_table(program) -> MaskTable:
    """Twirl every shared gate-noise op and propagate it to the circuit's end.

    Every shared noise op is Pauli-twirled and its branches propagated
    through the *subsequent* Clifford gates (phases are irrelevant: only the
    final X-mask of an error changes computational-basis probabilities).
    One reverse walk over the template composes the suffix map -- the
    x-parts of the images of every ``X_q``/``Z_q`` under the gates after the
    current position, one integer-packed row each -- one gate at a time
    (:func:`symplectic.compose_suffix_packed`: one or two integer XORs or
    swaps per gate).  Reaching a noise event it snapshots the map rows at
    the event's positions; reaching a window slot, the two rows of the
    window's own qubit (idle-window ops never touch any other), from which
    any variant's masks are computed later without walking the template
    again.  The snapshots become word rows in one conversion.

    After the walk the masks come out one XOR pass per width group: the
    rows of an event on ``k`` qubits span a ``4**k``-row table (the XOR of
    ``{0, X, X^Z, Z}`` per position, in Pauli order), and a branch's mask
    is the table row of its Pauli.  Branch probabilities and cumulative rows
    are copied from each distinct twirl (one ``np.cumsum`` each), and an
    event's flip-free weight -- ``float(probs[zero_rows].sum())`` over the
    twirl's own probabilities -- is computed once per distinct (twirl,
    zero-branch pattern).  The shared product multiplies the events' weights
    in template order, starting from 1.0.
    """
    n = program.num_active
    words = symplectic.num_words(max(1, n))
    ops = [
        payload
        for kind, payload in program.template
        if kind == "op" and payload.gate is None
    ]
    width = np.array([len(op.positions) for op in ops], dtype=np.int64)

    # The walk, backward: integers are immutable, so keeping a reference to
    # a map row snapshots it.
    x_of_x, x_of_z = symplectic.identity_suffix(n)  # images of X_q, of Z_q
    slots: List[Tuple[int, int, int]] = []  # (window, position, events after)
    slot_rows: List[int] = []               # its (x, z) rows, reversed
    event_rows: List[int] = []              # per event and position, reversed
    for kind, payload in reversed(program.template):
        if kind == "window":
            p = program.index_of[program.windows[payload].qubit]
            slots.append((payload, p, len(event_rows)))
            slot_rows += (x_of_z[p], x_of_x[p])
        elif payload.gate is not None:
            symplectic.compose_suffix_packed(
                x_of_x, x_of_z, payload.gate.name, payload.positions, payload.gate.params
            )
        else:
            for p in reversed(payload.positions):
                event_rows += (x_of_z[p], x_of_x[p])
    snapshot = symplectic.ints_to_words(event_rows[::-1], words)
    window_words = symplectic.ints_to_words(slot_rows[::-1], words).reshape(-1, 2, words)
    slots.reverse()
    suffix_maps = {
        widx: ({p: rows[0]}, {p: rows[1]})
        for (widx, p, _), rows in zip(slots, window_words)
    }
    # Each event holds two rows per position in ``event_rows``.
    offsets = np.concatenate(([0], np.cumsum(2 * width))).astype(np.int64)
    events_before = np.searchsorted(
        offsets, len(event_rows) - np.array([after for _, _, after in slots], dtype=np.int64)
    )

    # Distinct twirls, by identity: events share ResolvedOps.
    twirl_index: Dict[int, int] = {}
    twirls: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    twirl_of = np.empty(len(ops), dtype=np.int64)
    for e, op in enumerate(ops):
        twirl = op.twirl
        index = twirl_index.get(id(twirl))
        if index is None:
            index = twirl_index[id(twirl)] = len(twirls)
            twirls.append(twirl)
        twirl_of[e] = index

    row = np.zeros(len(ops), dtype=np.int64)
    groups: Dict[int, EventGroup] = {}
    flip_free = np.ones(len(ops), dtype=float)
    for k in np.unique(width).tolist():
        members = np.flatnonzero(width == k)
        row[members] = np.arange(len(members))
        snap = snapshot[offsets[members][:, None] + np.arange(2 * k)]
        used, local = np.unique(twirl_of[members], return_inverse=True)
        local = local.reshape(-1)
        branches = 4 ** k
        t_probs = np.zeros((len(used), branches), dtype=float)
        t_cum = np.full((len(used), branches), 2.0, dtype=float)
        t_counts = np.zeros(len(used), dtype=np.int64)
        t_paulis = np.zeros((len(used), branches), dtype=np.int64)  # 0 = identity
        for i, t in enumerate(used.tolist()):
            probs, xbits, zbits = twirls[t]
            count = len(probs)
            t_probs[i, :count] = probs
            t_cum[i, :count] = np.cumsum(probs)
            t_counts[i] = count
            labels = 2 * zbits.astype(np.int64) + (xbits ^ zbits)  # I, X, Y, Z = 0..3
            t_paulis[i, :count] = labels @ (4 ** np.arange(k - 1, -1, -1))
        masks = np.empty((len(members), branches, words), dtype=np.uint64)
        for start in range(0, len(members), _MASK_CHUNK_ROWS):
            stop = min(len(members), start + _MASK_CHUNK_ROWS)
            table = np.zeros((stop - start, 1, words), dtype=np.uint64)
            for c in range(k):
                x_row, z_row = snap[start:stop, 2 * c], snap[start:stop, 2 * c + 1]
                position = np.stack(
                    [np.zeros_like(x_row), x_row, x_row ^ z_row, z_row], axis=1
                )
                table = (table[:, :, None, :] ^ position[:, None, :, :]).reshape(
                    stop - start, -1, words
                )
            paulis = t_paulis[local[start:stop]]
            masks[start:stop] = np.take_along_axis(table, paulis[:, :, None], axis=1)
        counts = t_counts[local]
        groups[k] = EventGroup(t_probs[local], t_cum[local], counts, masks)

        # Flip-free weights, once per distinct (twirl, zero-branch pattern).
        live = np.arange(branches)[None, :] < counts[:, None]
        zero = ~masks.any(axis=2) & live
        pattern = zero @ (1 << np.arange(branches, dtype=np.int64))
        keys, inverse = np.unique(
            (used[local] << branches) | pattern, return_inverse=True
        )
        weights = np.empty(len(keys), dtype=float)
        for i, key in enumerate(keys.tolist()):
            probs = twirls[key >> branches][0]
            zero_rows = (key >> np.arange(len(probs))) & 1 == 1
            weights[i] = float(probs[zero_rows].sum())
        flip_free[members] = weights[inverse.reshape(-1)]

    shared_flip_free = 1.0
    for weight in flip_free.tolist():  # template order fixes the float product
        shared_flip_free *= weight
    return MaskTable(
        groups=groups,
        width=width,
        row=row,
        flip_free=flip_free,
        shared_flip_free=shared_flip_free,
        slot_windows=np.array([widx for widx, _, _ in slots], dtype=np.int64),
        events_before=events_before.astype(np.int64),
        suffix_maps=suffix_maps,
    )


class WindowEvents(NamedTuple):
    """The twirled events of a list of (window, variant) pairs, as arrays.

    One row per window op, pair by pair and, within a pair, in application
    order: pair ``i``'s ops are rows ``bounds[i]:bounds[i + 1]``.  A row
    holds the op's kept twirl branches left-aligned in Pauli order
    (I, X, Y, Z); columns past ``counts`` are padding.
    """

    bounds: np.ndarray     # (pairs + 1,) int64 row offsets
    probs: np.ndarray      # (ops, 4) branch probabilities, 0.0 padded
    cum: np.ndarray        # (ops, 4) cumulative probabilities, 2.0 padded
    counts: np.ndarray     # (ops,) kept branches
    masks: np.ndarray      # (ops, 4, words) packed end X-masks, zero padded
    flip_free: np.ndarray  # (pairs,) product of the ops' zero-mask weights


def _ragged(sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(group, index within group)`` of every item of consecutive groups."""
    group = np.repeat(np.arange(len(sizes)), sizes)
    return group, np.arange(len(group)) - (np.cumsum(sizes) - sizes)[group]


def _window_variant_events(
    program,
    suffix_maps: Dict[int, Tuple[object, object]],
    pairs: Sequence[Tuple[int, Optional[str]]],
) -> WindowEvents:
    """Twirl, mask and weigh the ops of every (window, variant) pair at once.

    Idle-window ops act on one qubit, so each op's Pauli coefficient
    ``tr(P K)/2`` is one rounding of a sum of two exact products (every
    Pauli entry is 0, ±1 or ±i): one ``einsum`` over all ops, their Kraus
    lists zero-padded to four slots, gives each coefficient the bits of
    :func:`pauli_twirl_probabilities` on the op alone.  The kept-branch
    filter, the normalisation over kept branches and every sum run over
    at most four terms in branch order, where the padding adds exact
    zeros.  A branch's end X-mask is the row of its Pauli in the window's
    4-row table ``{0, X, X^Z, Z}``, built from the window qubit's two
    suffix-map rows.  Each pair's flip-free weight multiplies its ops'
    zero-mask weights left to right, starting from 1.0.
    """
    words = symplectic.num_words(max(1, program.num_active))
    op_lists = [program.window_ops(widx, variant) for widx, variant in pairs]
    ops = [op for op_list in op_lists for op in op_list]
    sizes = np.array([len(op_list) for op_list in op_lists], dtype=np.int64)
    op_pair, op_index = _ragged(sizes)

    x_rows = np.zeros((len(pairs), words), dtype=np.uint64)
    z_rows = np.zeros((len(pairs), words), dtype=np.uint64)
    for i, (widx, _) in enumerate(pairs):
        position = program.index_of[program.windows[widx].qubit]
        x_rows[i] = suffix_maps[widx][0][position]  # x-part of X's image
        z_rows[i] = suffix_maps[widx][1][position]  # x-part of Z's image
    table = np.zeros((len(ops), 4, words), dtype=np.uint64)
    table[:, 1] = x_rows[op_pair]
    table[:, 3] = z_rows[op_pair]
    table[:, 2] = table[:, 1] ^ table[:, 3]

    slots = np.zeros((len(ops), 4, 2, 2), dtype=complex)
    if ops:
        owner, slot = _ragged(np.array([len(op.kraus) for op in ops], dtype=np.int64))
        slots[owner, slot] = np.stack([k for op in ops for k in op.kraus])
    coefficients = np.einsum("pij,emji->epm", _pauli_basis(1)[0], slots) / 2
    weights = (np.abs(coefficients) ** 2).sum(axis=2)  # (ops, Paulis)
    keep = weights > 1e-15
    kept = np.where(keep, weights, 0.0)
    counts = keep.sum(axis=1).astype(np.int64)
    order = np.argsort(~keep, axis=1, kind="stable")  # kept Paulis first, in order
    live = np.arange(4)[None, :] < counts[:, None]
    probs = np.take_along_axis(kept, order, axis=1) / kept.sum(axis=1)[:, None]
    probs[~live] = 0.0
    masks = np.take_along_axis(table, order[:, :, None], axis=1)
    masks[~live] = 0
    cum = np.where(live, np.cumsum(probs, axis=1), 2.0)

    op_weights = np.ones((len(pairs), int(sizes.max(initial=0))), dtype=float)
    op_weights[op_pair, op_index] = np.where(masks.any(axis=2), 0.0, probs).sum(axis=1)
    flip_free = np.ones(len(pairs), dtype=float)
    for column in op_weights.T:
        flip_free = flip_free * column
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    return WindowEvents(bounds, probs, cum, counts, masks, flip_free)


# ---------------------------------------------------------------------------
# Sparse stabilizer frame engine (device-scale Clifford path)
# ---------------------------------------------------------------------------


class StabilizerFrameEngine(ExecutionEngine):
    """Pauli-frame sampling over the twirled stabilizer model, at any width.

    Same noise model as :class:`StabilizerEngine` — every channel replaced by
    its Pauli twirl, only X-components affecting outcomes — but instead of
    the exact 2^n Walsh–Hadamard convolution (impossible beyond ~25 active
    qubits) each per-trajectory stream samples one *frame*: a concrete branch
    per twirled event, whose end-propagated X-masks XOR together in O(n)
    bits.  The ideal outcome per frame is drawn from the affine-subspace
    structure of the final stabilizer state (computed once per program;
    deterministic programs — the mirror workloads — have a single point),
    readout assignment errors are folded in per frame, and the result is a
    :class:`SparseDistribution` over the *output* bits.

    This is the engine that makes the device-scale mirror workloads
    executable: the frame state is ``trajectories × ceil(n/64)`` packed
    uint64 words, so the 127-qubit points of the hardware-scaling study run
    in milliseconds.  Within the twirled model the estimate is unbiased;
    precision scales as ``1/sqrt(trajectories)``, and seeded runs are
    deterministic and batch-invariant (per-trajectory streams follow the
    same protocol as the trajectory engine).

    A run stacks every applied event into one ``(events, branches)``
    cumulative matrix plus an ``(events, branches, words)`` mask tensor,
    draws each trajectory's whole uniform stream in one call, selects all
    branches in one vectorized comparison, and folds the frame XOR into
    packed words.  Per stream, draws are consumed exactly as a per-event,
    per-trajectory loop would consume them (the test suite's oracle is that
    loop), so counts, ``flip_free_probability`` and every
    :class:`SparseDistribution` payload are bit-identical to it.
    """

    name = "stabilizer_frames"
    needs_streams = True

    def supports(self, program) -> bool:
        return bool(getattr(program, "is_clifford", False))

    def state_bytes(self, num_active: int, trajectories: int) -> int:
        words = symplectic.num_words(max(1, num_active))
        return max(1, 8 * words * max(1, trajectories))

    # -- public entry --------------------------------------------------

    def run(self, program, jobs, trajectories):
        if not self.supports(program):
            raise SimulationError(
                "the stabilizer_frames engine requires a Clifford-only compiled"
                " program; use engine='auto', 'density_matrix' or 'trajectories'"
            )
        n = program.num_active
        W = symplectic.num_words(max(1, n))
        table = _noise_mask_table(program)
        base, basis = program.ideal_support()
        base_words = symplectic.pack_rows(base, n)
        basis_words = symplectic.pack_rows(basis, n) if basis.shape[0] else None
        stack_cache: Dict[Tuple[object, ...], Dict[str, object]] = (
            program.engine_cache.setdefault("stabilizer_frame_stacks", {})
        )
        survival_cache: Dict[Tuple[int, ...], Optional[float]] = (
            program.engine_cache.setdefault("stabilizer_frame_survival", {})
        )
        readout = self._readout_rates(program)
        results = []
        for job in jobs:
            streams = job.streams
            T = len(streams)
            key = tuple(job.variants)
            stack = stack_cache.get(key)
            if stack is None:
                stack = self._variant_stack(program, table, job.variants)
                stack_cache[key] = stack

            counts: np.ndarray = stack["counts"]
            E = counts.shape[0]
            if E:
                draws = np.empty((T, E), dtype=float)
                for t, stream in enumerate(streams):
                    draws[t] = stream.random(size=E)
                flips = self._sample_flips(stack, draws)
            else:
                flips = np.zeros((T, W), dtype=np.uint64)

            if basis_words is not None:
                k = basis.shape[0]
                free_bits = np.empty((T, k), dtype=np.uint8)
                for t, stream in enumerate(streams):
                    free_bits[t] = stream.integers(0, 2, size=k)
                for row in range(k):
                    flips[free_bits[:, row].astype(bool)] ^= basis_words[row]
            outcomes = base_words[None, :] ^ flips

            positions = job.outputs if job.outputs is not None else tuple(range(n))
            out_bits = np.empty((T, len(positions)), dtype=bool)
            for column, position in enumerate(positions):
                out_bits[:, column] = symplectic.bit_column(outcomes, position)
            noisy = [
                (column, readout[position])
                for column, position in enumerate(positions)
                if readout[position][0] > 0.0 or readout[position][1] > 0.0
            ]
            if noisy:
                rdraws = np.empty((T, len(noisy)), dtype=float)
                for t, stream in enumerate(streams):
                    rdraws[t] = stream.random(size=len(noisy))
                for j, (column, (p01, p10)) in enumerate(noisy):
                    flip = np.where(
                        out_bits[:, column], rdraws[:, j] < p10, rdraws[:, j] < p01
                    )
                    out_bits[:, column] ^= flip

            if positions not in survival_cache:
                survival_cache[positions] = self._readout_survival(
                    base, basis, positions, readout
                )
            survival = survival_cache[positions]

            weight = 1.0 / T
            probabilities: Dict[str, float] = {}
            # One ascii render of the whole (T, P) bit block; slicing it per
            # trajectory yields the same strings (and the same accumulation
            # order) as per-row joins.
            P = out_bits.shape[1]
            text = (out_bits.astype(np.uint8) + np.uint8(48)).tobytes().decode("ascii")
            for t in range(T):
                bits = text[t * P : (t + 1) * P]
                probabilities[bits] = probabilities.get(bits, 0.0) + weight
            flip_free = stack["flip_free"]
            results.append(
                SparseDistribution(
                    probabilities=probabilities,
                    num_bits=len(positions),
                    readout_applied=True,
                    metadata=(
                        {}
                        if survival is None
                        else {"flip_free_probability": flip_free * survival}
                    ),
                )
            )
        return results

    #: When more than this fraction of all (trajectory, event) draws leave
    #: the first branch, the sparse scatter-XOR stops winning and the dense
    #: gather kernel takes over.  The
    #: threshold only picks an implementation — both compute identical flips.
    _DENSE_GATHER_FRACTION = 0.05

    @staticmethod
    def _sample_flips(stack: Dict[str, object], draws: np.ndarray) -> np.ndarray:
        """Select every trajectory's branch per event and XOR the frame masks.

        Branch selection is one ``searchsorted`` into the offset-flattened
        cumulative matrix (event ``e``'s block shifted by ``2e``, so a draw
        ``u + 2e`` lands inside its own block and the result minus ``e * B``
        is exactly ``searchsorted(cum, u, side="right")`` on the event's own
        cumulative row, clipped to its branch count).  Because realistic noise leaves almost
        every draw on the first branch, the XOR is computed as a precomputed
        first-branch baseline plus a scatter of the rare off-baseline deltas;
        when the off-baseline fraction is high the dense
        :func:`repro.simulators.symplectic.xor_gather_reduce` path runs
        instead.
        """
        T, E = draws.shape
        masks: np.ndarray = stack["masks"]
        clip: np.ndarray = stack["clip"]
        hot = draws >= stack["cum0"][None, :]
        t_idx, e_idx = np.nonzero(hot)
        if t_idx.size > T * E * StabilizerFrameEngine._DENSE_GATHER_FRACTION:
            flat = draws + stack["event_offset"][None, :]
            chosen = np.searchsorted(stack["flat_cum"], flat.ravel(), side="right")
            chosen = chosen.reshape(T, E) - stack["index_offset"][None, :]
            chosen = np.minimum(chosen, clip[None, :])
            return symplectic.xor_gather_reduce(masks, chosen)
        out = np.broadcast_to(stack["base_xor"], (T, masks.shape[2])).copy()
        if t_idx.size:
            u = draws[t_idx, e_idx] + stack["event_offset"][e_idx]
            choice = (
                np.searchsorted(stack["flat_cum"], u, side="right")
                - stack["index_offset"][e_idx]
            )
            choice = np.minimum(choice, clip[e_idx])
            delta = masks[e_idx, choice] ^ masks[e_idx, 0]
            np.bitwise_xor.at(out, t_idx, delta)
        return out

    @staticmethod
    def _variant_stack(program, table, variants) -> Dict[str, object]:
        """Stack one variant-tuple's applied events into contiguous arrays.

        Events keep template order: the applied shared noise events
        (:meth:`_shared_events`) and, at each window slot, the applied events
        of that window's variant, taken from the program's window pool
        (:meth:`_window_pool`).  Pure-Z events (no X-component in any branch)
        are dropped deterministically — they never consume a draw — and the
        window flip-free weights multiply into the running product in
        encounter order, which fixes the float result bit for bit.  Cached
        per variants tuple in ``engine_cache["stabilizer_frame_stacks"]``;
        ragged branch counts are padded with cumulative 2.0 / zero masks.
        """
        shared = StabilizerFrameEngine._shared_events(program, table)
        slots = shared["slot_windows"]
        pairs = [(widx, variants[widx]) for widx in slots]
        pool = StabilizerFrameEngine._window_pool(program, table, pairs)
        pair_ids = np.array([pool["index"][pair] for pair in pairs], dtype=np.int64)
        flip_free = float(table.shared_flip_free)
        for weight in pool["flip_free"][pair_ids].tolist():
            flip_free *= weight

        # Output rows: every slot's window events follow the shared events
        # before it and the window events of the slots before it.
        lengths = pool["lengths"][pair_ids]
        window_before = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        shared_rows = np.arange(len(shared["counts"])) + window_before[shared["slots_before"]]
        slot_of, within = _ragged(lengths)
        window_rows = shared["before_slot"][slot_of] + window_before[:-1][slot_of] + within
        pool_rows = pool["starts"][pair_ids][slot_of] + within

        E = len(shared_rows) + len(window_rows)
        W = symplectic.num_words(max(1, program.num_active))
        counts = np.empty(E, dtype=np.int64)
        counts[shared_rows] = shared["counts"]
        counts[window_rows] = pool["counts"][pool_rows]
        B = int(counts.max(initial=1))
        cum = np.full((E, B), 2.0, dtype=float)
        masks_stack = np.zeros((E, B, W), dtype=np.uint64)
        # Shared events are gathered per width group straight from the
        # table's arrays, so the program keeps no second copy of them.
        for k, (members, rows) in shared["groups"].items():
            group = table.groups[k]
            width = min(B, group.cum.shape[1])
            cum[shared_rows[members], :width] = group.cum[rows, :width]
            masks_stack[shared_rows[members], :width] = group.masks[rows, :width]
        width = min(B, 4)
        cum[window_rows, :width] = pool["cum"][pool_rows, :width]
        masks_stack[window_rows, :width] = pool["masks"][pool_rows, :width]
        event_offset = 2.0 * np.arange(E, dtype=float)
        return {
            "cum": cum,
            "counts": counts,
            "clip": counts - 1,
            "masks": masks_stack,
            # _sample_flips precomputations: first-branch thresholds, the
            # offset-flattened cumulative blocks, and the XOR of every
            # event's first-branch mask (the all-draws-on-branch-0 baseline).
            "cum0": cum[:, 0].copy(),
            "flat_cum": (cum + event_offset[:, None]).ravel(),
            "event_offset": event_offset,
            "index_offset": np.arange(E, dtype=np.int64) * B,
            "base_xor": (
                np.bitwise_xor.reduce(masks_stack[:, 0, :], axis=0)
                if E
                else np.zeros(W, dtype=np.uint64)
            ),
            "flip_free": flip_free,
        }

    @staticmethod
    def _shared_events(program, table) -> Dict[str, object]:
        """The applied shared noise events (those with an X-component in some
        branch): their branch counts, their rows in each width group of the
        table, and where the window slots fall among them; built once per
        program."""
        cached = program.engine_cache.get("stabilizer_frame_shared")
        if cached is not None:
            return cached
        applied = np.zeros(len(table.width), dtype=bool)
        for k, group in table.groups.items():
            applied[table.width == k] = group.masks.any(axis=(1, 2))
        events = np.flatnonzero(applied)
        widths = table.width[events]
        rows = table.row[events]
        counts = np.zeros(len(events), dtype=np.int64)
        groups: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for k, group in table.groups.items():
            members = np.flatnonzero(widths == k)
            counts[members] = group.counts[rows[members]]
            groups[k] = (members, rows[members])
        applied_before = np.concatenate(([0], np.cumsum(applied))).astype(np.int64)
        cached = {
            "counts": counts,
            "groups": groups,
            "slot_windows": table.slot_windows.tolist(),
            "before_slot": applied_before[table.events_before],
            "slots_before": np.searchsorted(table.events_before, events, side="right"),
        }
        program.engine_cache["stabilizer_frame_shared"] = cached
        return cached

    @staticmethod
    def _window_pool(program, table, pairs) -> Dict[str, object]:
        """The program's window pool, grown by those of ``pairs`` it lacks.

        Every (window, variant) pair the program has run is built once, in
        one :func:`_window_variant_events` pass per growth, and keeps its
        applied events (those with an X-component) as a contiguous row range
        of the pool arrays, plus its flip-free weight.
        """
        pool = program.engine_cache.get("stabilizer_frame_windows")
        if pool is None:
            W = symplectic.num_words(max(1, program.num_active))
            pool = {
                "index": {},
                "starts": np.zeros(0, dtype=np.int64),
                "lengths": np.zeros(0, dtype=np.int64),
                "flip_free": np.zeros(0, dtype=float),
                "cum": np.zeros((0, 4), dtype=float),
                "masks": np.zeros((0, 4, W), dtype=np.uint64),
                "counts": np.zeros(0, dtype=np.int64),
            }
            program.engine_cache["stabilizer_frame_windows"] = pool
        index: Dict[Tuple[int, Optional[str]], int] = pool["index"]
        missing = [pair for pair in pairs if pair not in index]
        if not missing:
            return pool
        events = _window_variant_events(program, table.suffix_maps, missing)
        applied = events.masks.any(axis=(1, 2))
        applied_before = np.concatenate(([0], np.cumsum(applied))).astype(np.int64)
        offset = len(pool["counts"])
        for pair in missing:
            index[pair] = len(index)
        first = applied_before[events.bounds]
        pool["starts"] = np.concatenate((pool["starts"], offset + first[:-1]))
        pool["lengths"] = np.concatenate((pool["lengths"], np.diff(first)))
        pool["flip_free"] = np.concatenate((pool["flip_free"], events.flip_free))
        pool["cum"] = np.concatenate((pool["cum"], events.cum[applied]))
        pool["masks"] = np.concatenate((pool["masks"], events.masks[applied]))
        pool["counts"] = np.concatenate((pool["counts"], events.counts[applied]))
        return pool

    # -- per-program structure -----------------------------------------

    #: Exact readout-survival averaging enumerates the ideal affine support;
    #: beyond this many free bits the expectation is not computed and the
    #: ``flip_free_probability`` metadata is *omitted* rather than reported
    #: approximately.
    _MAX_FREE_BITS_FOR_SURVIVAL = 12

    @staticmethod
    def _readout_survival(
        base: np.ndarray,
        basis: np.ndarray,
        positions: Tuple[int, ...],
        readout: Dict[int, Tuple[float, float]],
    ) -> Optional[float]:
        """Expected readout survival of an error-free run, exactly.

        ``E[prod_j P(bit j reads out correctly)]`` over the ideal outcome
        distribution — uniform on the affine support ``base ⊕ span(basis)``.
        Deterministic programs (the mirror workloads) have a single point;
        otherwise the support is enumerated (2^k points, capped by
        :data:`_MAX_FREE_BITS_FOR_SURVIVAL` — ``None`` beyond it, so the
        reported flip-free probability is exact or absent, never approximate).
        """
        k = basis.shape[0]
        if k > StabilizerFrameEngine._MAX_FREE_BITS_FOR_SURVIVAL:
            return None
        columns = list(positions)
        keep_zero = np.array([1.0 - readout[p][0] for p in positions])  # bit 0
        keep_one = np.array([1.0 - readout[p][1] for p in positions])   # bit 1
        base_bits = base[columns]
        if k == 0:
            return float(np.prod(np.where(base_bits, keep_one, keep_zero)))
        free = (
            (np.arange(2 ** k, dtype=np.uint32)[:, None] >> np.arange(k)[None, :]) & 1
        ).astype(np.uint8)
        bits = ((free @ basis[:, columns].astype(np.uint8)) % 2).astype(bool)
        bits ^= base_bits[None, :]
        survival = np.where(bits, keep_one[None, :], keep_zero[None, :]).prod(axis=1)
        return float(survival.mean())

    @staticmethod
    def _readout_rates(program) -> Dict[int, Tuple[float, float]]:
        """(p01, p10) per active-space position, from the calibration."""
        rates: Dict[int, Tuple[float, float]] = {}
        calibration = program.backend.calibration
        for position, qubit in enumerate(program.active):
            cal = calibration.qubit(qubit)
            rates[position] = (float(cal.readout_p01), float(cal.readout_p10))
        return rates


register_engine(DensityMatrixEngine())
register_engine(TrajectoryEngine())
register_engine(StabilizerEngine())
register_engine(StabilizerFrameEngine())

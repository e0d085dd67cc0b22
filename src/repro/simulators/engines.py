"""Pluggable execution engines over a compiled noisy program.

Every execution — single runs and batches of
:class:`~repro.hardware.execution.NoisyExecutor` alike — routes through the
engines registered here.  An engine consumes a
:class:`~repro.hardware.program.CompiledNoisyProgram` (the shared event
template with pre-resolved operators) plus per-job window variants, and
returns one active-space probability vector per job.

Four engines are registered by default:

* ``"density_matrix"`` — exact mixed-state evolution; channels are applied as
  precomputed superoperators, one BLAS-backed contraction over the whole
  stacked batch per event.
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
:mod:`repro.simulators.symplectic` by default; ``REPRO_PURE_KERNELS=1``
switches them back to the original boolean-row code path, which is kept as
the differential-testing oracle.  Outputs are bit-identical either way.

Engine selection policy lives here too (:func:`select_engine`): ``"auto"``
picks the stabilizer fast path for Clifford-only programs, the dense density
matrix up to ``dm_qubit_limit`` active qubits, and trajectories beyond; with
a memory budget, Clifford programs too large for every dense state fall back
to the frame engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..circuits.gates import Gate
from . import symplectic
from .stabilizer import StabilizerSimulator
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
]

#: Beyond this many active qubits ``"auto"`` stops preferring the stabilizer
#: fast path (its 2^n Walsh–Hadamard convolution stops being the cheap option).
STABILIZER_AUTO_QUBIT_LIMIT = 12


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

    ``variants`` holds one window-variant key per idle window of the program
    (see :meth:`~repro.hardware.program.CompiledNoisyProgram.window_ops`);
    ``streams`` the per-trajectory RNG streams (only materialized for engines
    with ``needs_streams``).  ``outputs`` gives the job's output qubits as
    *active-space positions* in output-bit order — dense engines ignore it
    (the pipeline marginalizes their full vectors), sparse engines resolve
    outputs themselves because a 2^n vector never exists.
    """

    variants: List[object]
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
    #: only materialize the streams when an engine asks for them.
    needs_streams: bool = False

    def supports(self, program) -> bool:
        """True if the engine can execute this compiled program."""
        return True

    def state_bytes(self, num_active: int, trajectories: int) -> int:
        """Per-job working-state size, used for memory-budget sub-batching."""
        raise NotImplementedError

    def run(
        self,
        program,
        jobs: Sequence[EngineJob],
        trajectories: int,
        stats: Optional[Dict[str, int]] = None,
    ) -> List[np.ndarray]:
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
    dm_qubit_limit: int = 10,
    clifford: bool = False,
    stabilizer_qubit_limit: int = STABILIZER_AUTO_QUBIT_LIMIT,
    memory_budget_bytes: Optional[int] = None,
    trajectories: int = 1,
) -> str:
    """The one engine-selection policy shared by every execution path.

    ``"auto"`` resolves to the stabilizer fast path when the compiled program
    is Clifford-only (and small enough for the 2^n convolution), otherwise to
    the dense density matrix up to ``dm_qubit_limit`` active qubits, and to
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
    if stabilizer_ok and num_active <= stabilizer_qubit_limit:
        candidates.append("stabilizer")
    if num_active <= dm_qubit_limit:
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


def _window_groups(jobs: Sequence[EngineJob], widx: int) -> Dict[object, List[int]]:
    """Group job indices by the variant they use for window ``widx``."""
    groups: Dict[object, List[int]] = {}
    for j, job in enumerate(jobs):
        groups.setdefault(job.variants[widx], []).append(j)
    return groups


# ---------------------------------------------------------------------------
# Density-matrix engine
# ---------------------------------------------------------------------------


class DensityMatrixEngine(ExecutionEngine):
    """Exact mixed-state evolution via batched superoperator contractions."""

    name = "density_matrix"
    needs_streams = False

    def state_bytes(self, num_active: int, trajectories: int) -> int:
        return 16 * (4 ** num_active)

    def run(self, program, jobs, trajectories, stats=None):
        n = program.num_active
        J = len(jobs)
        state = np.zeros((J,) + (2,) * (2 * n), dtype=complex)
        state[(slice(None),) + (0,) * (2 * n)] = 1.0

        def apply_op(target: np.ndarray, op) -> np.ndarray:
            rows = [1 + p for p in op.positions]
            cols = [1 + n + p for p in op.positions]
            return _apply_operator(target, op.superop, rows + cols)

        for kind, payload in program.template:
            if kind == "op":
                state = apply_op(state, payload)
                continue
            widx: int = payload
            for variant, members in _window_groups(jobs, widx).items():
                ops = program.window_ops(widx, variant)
                if not ops:
                    continue
                if stats is not None:
                    stats["window_variants"] = stats.get("window_variants", 0) + 1
                if len(members) == J:
                    for op in ops:
                        state = apply_op(state, op)
                else:
                    index = np.array(members)
                    sub = state[index]
                    for op in ops:
                        sub = apply_op(sub, op)
                    state[index] = sub

        # Diagonal, clipped and renormalised exactly like
        # DensityMatrixSimulator.probabilities().
        diag_labels = [0] + list(range(1, n + 1)) + list(range(1, n + 1))
        diag = np.real(np.einsum(state, diag_labels, [0] + list(range(1, n + 1))))
        diag = diag.reshape(J, 2 ** n).copy()
        diag[diag < 0] = 0.0
        results = []
        for j in range(J):
            total = diag[j].sum()
            if total <= 0:
                raise SimulationError("density matrix has vanished (all-zero diagonal)")
            results.append(diag[j] / total)
        return results


# ---------------------------------------------------------------------------
# Trajectory engine
# ---------------------------------------------------------------------------


class TrajectoryEngine(ExecutionEngine):
    """Vectorized Monte-Carlo unravelling with per-trajectory seeded streams."""

    name = "trajectories"
    needs_streams = True

    def state_bytes(self, num_active: int, trajectories: int) -> int:
        return 16 * trajectories * (2 ** num_active)

    def run(self, program, jobs, trajectories, stats=None):
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
                if stats is not None:
                    stats["window_variants"] = stats.get("window_variants", 0) + 1
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
        if op.mixed_cumulative is not None:
            cumulative = op.mixed_cumulative
            choices = np.empty((len(members), T), dtype=np.int64)
            for row, j in enumerate(members):
                row_streams = streams[j]
                for t in range(T):
                    choices[row, t] = choose_branch(row_streams[t], cumulative)
            for branch, unitary in enumerate(op.mixed_unitaries or []):
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

    def run(self, program, jobs, trajectories, stats=None):
        if not self.supports(program):
            raise SimulationError(
                "the stabilizer engine requires a Clifford-only compiled program;"
                " use engine='auto', 'density_matrix' or 'trajectories'"
            )
        n = program.num_active
        needed = set()
        for job in jobs:
            for widx, variant in enumerate(job.variants):
                if variant != "skip":
                    needed.add((widx, variant))
        cache = program.engine_cache.get(self.name)
        if cache is None:
            cache = self._build_base(program)
            program.engine_cache[self.name] = cache
        # Incremental: only spectra of variants never seen before are computed
        # (through the memoized per-window suffix conjugation maps); the ideal
        # spectrum and the shared gate-noise spectrum are never rebuilt.
        for widx, variant in sorted(needed - cache["built"], key=repr):
            self._add_window_variant(program, cache, widx, variant)
            cache["built"].add((widx, variant))

        results = []
        for job in jobs:
            spectrum = cache["shared"].copy()
            for widx, variant in enumerate(job.variants):
                if variant == "skip":
                    continue
                window_spectrum = cache["windows"].get((widx, variant))
                if window_spectrum is not None:
                    spectrum *= window_spectrum
            probs = _fwht(cache["ideal_wht"] * spectrum) / (2 ** n)
            probs[probs < 0] = 0.0
            total = probs.sum()
            if total <= 0:
                raise SimulationError("stabilizer distribution has vanished")
            results.append(probs / total)
        if stats is not None and jobs:
            for widx in range(len(jobs[0].variants)):
                groups = {
                    job.variants[widx]
                    for job in jobs
                    if (widx, job.variants[widx]) in cache["windows"]
                }
                stats["window_variants"] = stats.get("window_variants", 0) + len(groups)
        return results

    # -- model construction --------------------------------------------

    def _ideal_distribution(self, program) -> np.ndarray:
        """Exact noise-free output distribution over the active qubits."""
        n = program.num_active
        circuit = QuantumCircuit(n)
        for kind, payload in program.template:
            if kind == "op" and payload.gate is not None:
                circuit.append(
                    Gate(payload.gate.name, payload.positions, payload.gate.params)
                )
        outcome_map = StabilizerSimulator().probabilities(circuit, max_outcomes=2 ** n)
        ideal = np.zeros(2 ** n, dtype=float)
        for bits, probability in outcome_map.items():
            ideal[int(bits, 2)] = probability
        return ideal / ideal.sum()

    def _build_base(self, program) -> Dict[str, object]:
        """The variant-independent part of the model, from the shared table.

        The propagated mask table (:func:`_noise_mask_table`, shared with the
        frame engine) supplies every shared noise event's branch
        probabilities and end-propagated X-masks; here they are convolved
        into one spectrum, alongside the exact ideal distribution.
        """
        n = program.num_active
        table = _noise_mask_table(program)
        shared = np.ones(2 ** n, dtype=float)
        for entry in table["sequence"]:
            if entry[0] == "noise":
                _, probs, masks = entry
                shared *= self._spectrum(probs, self._pack_masks(masks, n), n)
        ideal = self._ideal_distribution(program)
        return {
            "ideal_wht": _fwht(ideal),
            "shared": shared,
            "suffix_maps": table["suffix_maps"],
            "windows": {},
            "built": set(),
        }

    def _add_window_variant(self, program, cache, widx: int, variant: object) -> None:
        """Spectrum of one (window, variant): twirl its ops, map through the
        memoized suffix conjugation, convolve — no template re-walk."""
        events = _variant_mask_events(program, cache["suffix_maps"], widx, variant)
        if not events:
            return
        n = program.num_active
        spectrum = np.ones(2 ** n, dtype=float)
        for probs, final_x in events:
            spectrum *= self._spectrum(probs, self._pack_masks(final_x, n), n)
        cache["windows"][(widx, variant)] = spectrum

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
    def _twirl(op) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        twirl = op._twirl
        if twirl is None:
            twirl = pauli_twirl_probabilities(op.kraus_matrices())
            op._twirl = twirl
        return twirl

    @staticmethod
    def _pack_masks(xparts: np.ndarray, n: int) -> np.ndarray:
        """X-mask rows packed into integers (qubit position 0 = MSB).

        This is the dense engine's output boundary: mask rows arriving as
        packed symplectic words (qubit 0 = LSB of word 0) are unpacked here
        before re-encoding into the MSB-first indices the 2^n spectrum uses.
        The engine only runs at small n, so the conversion is negligible.
        """
        if xparts.dtype == np.uint64:
            xparts = symplectic.unpack_rows(xparts, n)
        weights = (1 << np.arange(n - 1, -1, -1)).astype(np.uint64)
        return (xparts.astype(np.uint64) @ weights).astype(np.uint64)

    @staticmethod
    def _propagate_gate(op, xparts: np.ndarray, zparts: np.ndarray) -> None:
        """Symplectic conjugation of the pending Pauli rows by one gate."""
        gate = op.gate
        name = gate.name
        positions = op.positions
        if name in ("id", "i", "x", "y", "z"):
            return
        if name == "h":
            a = positions[0]
            xa = xparts[:, a].copy()
            xparts[:, a] = zparts[:, a]
            zparts[:, a] = xa
        elif name in ("s", "sdg"):
            a = positions[0]
            zparts[:, a] ^= xparts[:, a]
        elif name in ("sx", "sxdg"):
            a = positions[0]
            xparts[:, a] ^= zparts[:, a]
        elif name in ("cx", "cnot"):
            control, target = positions
            xparts[:, target] ^= xparts[:, control]
            zparts[:, control] ^= zparts[:, target]
        elif name == "cz":
            a, b = positions
            zparts[:, b] ^= xparts[:, a]
            zparts[:, a] ^= xparts[:, b]
        elif name == "swap":
            a, b = positions
            for parts in (xparts, zparts):
                col = parts[:, a].copy()
                parts[:, a] = parts[:, b]
                parts[:, b] = col
        elif name in ("rz", "u1", "p"):
            quarter_turns = int(round(gate.params[0] / (math.pi / 2))) % 4
            if quarter_turns in (1, 3):
                a = positions[0]
                zparts[:, a] ^= xparts[:, a]
        else:  # pragma: no cover - guarded by CompiledNoisyProgram.is_clifford
            raise SimulationError(f"gate '{name}' is not Clifford-propagatable")


# ---------------------------------------------------------------------------
# Shared twirled-mask propagation (stabilizer + stabilizer_frames)
# ---------------------------------------------------------------------------


def _noise_mask_table(program) -> Dict[str, object]:
    """Template-ordered twirled noise events with end-propagated X-masks.

    Every shared gate-noise op is Pauli-twirled and its branches propagated
    through the *subsequent* Clifford gates (phases are irrelevant: only the
    final X-mask of an error changes computational-basis probabilities), and
    every idle-window slot records its suffix conjugation map, from which
    any variant's masks are computed later without walking the template
    again.

    The table is the shared substrate of both Clifford engines — the dense
    ``stabilizer`` engine convolves the masks into 2^n spectra, the sparse
    ``stabilizer_frames`` engine samples them — and is built once per
    compiled program *and kernel mode*.  The pure path
    (``REPRO_PURE_KERNELS=1``) is the original forward pass: it seeds 2n
    boolean basis rows at every window slot and pushes the whole block
    through each gate, which is transparent but O(gates × rows).  The packed
    path (:func:`symplectic.use_packed_kernels`) instead walks the template
    *backward*, composing one ``(n, W)``-word suffix map a gate at a time
    (:func:`symplectic.compose_suffix_packed`) and reading each event's
    masks straight out of the map — O(gates × W) row operations, which is
    what keeps the mask-table build sub-second at 255 and 1023 qubits where
    the forward pass spends minutes.  The two builds produce bit-identical
    mask content (GF(2) linearity; XOR order cannot matter) and are cached
    under distinct ``engine_cache`` keys so flipping ``REPRO_PURE_KERNELS``
    mid-process can never serve a stale representation.
    """
    packed = symplectic.use_packed_kernels()
    cache_key = "stabilizer_masks:packed" if packed else "stabilizer_masks:pure"
    cached = program.engine_cache.get(cache_key)
    if cached is not None:
        return cached
    n = program.num_active
    events: List[Tuple[int, object, Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]], Tuple[int, ...]]] = []
    for tidx, (kind, payload) in enumerate(program.template):
        if kind == "op":
            if payload.gate is not None:
                continue
            events.append((tidx, "noise", StabilizerEngine._twirl(payload), payload.positions))
        else:
            events.append((tidx, ("window", payload), None, ()))

    if packed:
        results = _packed_mask_results(program, events, n)
    else:
        results = _pure_mask_results(program, events, n)

    sequence: List[Tuple] = []
    suffix_maps: Dict[int, object] = {}
    shared_flip_free = 1.0
    for item in results:  # template order, so the float product order is fixed
        if item[0] == "window":
            _, widx, maps = item
            suffix_maps[widx] = maps
            sequence.append(("window", widx))
        else:
            _, probs, masks = item
            sequence.append(("noise", probs, masks))
            shared_flip_free *= _flip_free_weight(probs, masks)

    table = {
        "sequence": sequence,
        "suffix_maps": suffix_maps,
        "shared_flip_free": shared_flip_free,
        "packed": packed,
    }
    program.engine_cache[cache_key] = table
    return table


def _packed_mask_results(program, events, n: int) -> List[Tuple]:
    """Backward suffix-composition build of the mask table (packed words).

    One reverse walk over the template maintains the x-parts of the images
    of every ``X_q``/``Z_q`` under the gates *after* the current position.
    Reaching a noise event, its branch masks are a GF(2) combination of the
    map rows at the event's positions; reaching a window slot, the two map
    rows of the window's own qubit (idle-window ops never touch any other)
    are snapshotted as ``{position: row}`` dicts — 2 rows per window instead
    of the forward pass's 2n, which is the difference between megabytes and
    gigabytes at 1023 qubits.
    """
    W = symplectic.num_words(max(n, 1))
    x_of_x = symplectic.pack_rows(np.eye(n, dtype=bool), n)  # images of X_q
    x_of_z = np.zeros((n, W), dtype=np.uint64)               # images of Z_q
    zero = np.uint64(0)
    event_index = {tidx: i for i, (tidx, _, _, _) in enumerate(events)}
    results: List[Optional[Tuple]] = [None] * len(events)
    for tidx in range(len(program.template) - 1, -1, -1):
        kind, payload = program.template[tidx]
        if kind == "op" and payload.gate is not None:
            symplectic.compose_suffix_packed(
                x_of_x, x_of_z, payload.gate.name, payload.positions, payload.gate.params
            )
            continue
        _, tag, twirl, positions = events[event_index[tidx]]
        if twirl is None:
            widx = tag[1]
            p = program.index_of[program.windows[widx].qubit]
            maps = ({p: x_of_x[p].copy()}, {p: x_of_z[p].copy()})
            results[event_index[tidx]] = ("window", widx, maps)
        else:
            probs, xbits, zbits = twirl
            final_x = np.zeros((xbits.shape[0], W), dtype=np.uint64)
            for column, position in enumerate(positions):
                final_x ^= np.where(
                    xbits[:, column][:, None], x_of_x[position][None, :], zero
                )
                final_x ^= np.where(
                    zbits[:, column][:, None], x_of_z[position][None, :], zero
                )
            results[event_index[tidx]] = ("noise", probs, final_x)
    return results


def _pure_mask_results(program, events, n: int) -> List[Tuple]:
    """Forward row-propagation build of the mask table (boolean rows).

    The original oracle implementation: seed each event's rows when its
    template slot is reached, push every seeded row through each subsequent
    gate's column update.  Kept verbatim behind ``REPRO_PURE_KERNELS=1`` as
    the differential-testing reference for the backward packed build.
    """
    identity = np.eye(n, dtype=bool)
    basis_x = np.vstack([identity, np.zeros((n, n), dtype=bool)])  # X_q then Z_q
    basis_z = np.vstack([np.zeros((n, n), dtype=bool), identity])

    total_rows = sum(
        2 * n if twirl is None else twirl[1].shape[0] for _, _, twirl, _ in events
    )
    xparts = np.zeros((total_rows, n), dtype=bool)
    zparts = np.zeros((total_rows, n), dtype=bool)
    spans: List[Tuple[object, int, int, Optional[np.ndarray]]] = []

    cursor = 0
    event_iter = iter(events)
    pending = next(event_iter, None)
    for tidx, (kind, payload) in enumerate(program.template):
        while pending is not None and pending[0] == tidx:
            _, tag, twirl, positions = pending
            if twirl is None:  # window slot: seed the 2n basis rows
                xparts[cursor : cursor + 2 * n] = basis_x
                zparts[cursor : cursor + 2 * n] = basis_z
                spans.append((tag, cursor, cursor + 2 * n, None))
                cursor += 2 * n
            else:
                probs, xbits, zbits = twirl
                rows = xbits.shape[0]
                for column, position in enumerate(positions):
                    xparts[cursor : cursor + rows, position] = xbits[:, column]
                    zparts[cursor : cursor + rows, position] = zbits[:, column]
                spans.append((tag, cursor, cursor + rows, probs))
                cursor += rows
            pending = next(event_iter, None)
        if kind == "op" and payload.gate is not None:
            StabilizerEngine._propagate_gate(payload, xparts[:cursor], zparts[:cursor])

    results: List[Tuple] = []
    for tag, start, stop, probs in spans:
        if probs is None:
            maps = (
                xparts[start : start + n].copy(),      # x-parts of images of X_q
                xparts[start + n : stop].copy(),       # x-parts of images of Z_q
            )
            results.append(("window", tag[1], maps))
        else:
            results.append(("noise", probs, xparts[start:stop].copy()))
    return results


def _flip_free_weight(probs: np.ndarray, masks: np.ndarray) -> float:
    """Probability that one twirled event contributes no X-flip at all.

    Representation-agnostic: a row of the mask block is flip-free exactly
    when every entry is falsy, whether the entries are per-qubit booleans or
    packed uint64 words.
    """
    zero_rows = ~masks.any(axis=1)
    return float(probs[zero_rows].sum())


def _variant_mask_events(
    program, suffix_maps: Dict[int, Tuple[np.ndarray, np.ndarray]], widx: int, variant: object
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(probs, end-propagated X-masks)`` of one (window, variant)'s ops.

    The masks come back in whatever representation the suffix maps carry —
    packed uint64 words from a packed table (``{position: row}`` dicts
    holding just the window qubit's rows), boolean row matrices from a pure
    one — so callers never branch on the kernel mode themselves.
    """
    ops = program.window_ops(widx, variant)
    if not ops:
        return []
    n = program.num_active
    x_of_x, x_of_z = suffix_maps[widx]
    packed = isinstance(x_of_x, dict)
    events: List[Tuple[np.ndarray, np.ndarray]] = []
    for op in ops:
        probs, xbits, zbits = StabilizerEngine._twirl(op)
        rows = xbits.shape[0]
        if packed:
            zero = np.uint64(0)
            words = len(next(iter(x_of_x.values())))
            final_x = np.zeros((rows, words), dtype=np.uint64)
            for column, position in enumerate(op.positions):
                final_x ^= np.where(
                    xbits[:, column][:, None], x_of_x[position][None, :], zero
                )
                final_x ^= np.where(
                    zbits[:, column][:, None], x_of_z[position][None, :], zero
                )
        else:
            final_x = np.zeros((rows, n), dtype=bool)
            for column, position in enumerate(op.positions):
                final_x ^= xbits[:, column][:, None] & x_of_x[position][None, :]
                final_x ^= zbits[:, column][:, None] & x_of_z[position][None, :]
        events.append((probs, final_x))
    return events


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

    Two implementations share this class: the default packed path stacks
    every applied event into one ``(events, branches)`` cumulative matrix
    plus an ``(events, branches, words)`` mask tensor, draws each
    trajectory's whole uniform stream in one call, selects all branches in
    one vectorized comparison, and folds the frame XOR through
    :func:`repro.simulators.symplectic.xor_gather_reduce`; the original
    per-event boolean loop survives behind ``REPRO_PURE_KERNELS=1`` as the
    differential oracle.  Both consume the per-trajectory streams in the
    same order, so counts, ``flip_free_probability`` and every
    :class:`SparseDistribution` payload are bit-identical between them.
    """

    name = "stabilizer_frames"
    needs_streams = True

    def supports(self, program) -> bool:
        return bool(getattr(program, "is_clifford", False))

    def state_bytes(self, num_active: int, trajectories: int) -> int:
        words = symplectic.num_words(max(1, num_active))
        return max(1, 8 * words * max(1, trajectories))

    # -- public entry --------------------------------------------------

    def run(self, program, jobs, trajectories, stats=None):
        if not self.supports(program):
            raise SimulationError(
                "the stabilizer_frames engine requires a Clifford-only compiled"
                " program; use engine='auto', 'density_matrix' or 'trajectories'"
            )
        if symplectic.use_packed_kernels():
            return self._run_packed(program, jobs, stats)
        n = program.num_active
        table = _noise_mask_table(program)
        base, basis = self._ideal_structure(program)
        window_cache: Dict[
            Tuple[int, object], Tuple[List[Tuple[np.ndarray, np.ndarray]], float]
        ] = program.engine_cache.setdefault("stabilizer_frame_windows", {})
        survival_cache: Dict[Tuple[int, ...], Optional[float]] = (
            program.engine_cache.setdefault("stabilizer_frame_survival", {})
        )
        readout = self._readout_rates(program)
        used_variants: set = set()
        results = []
        for job in jobs:
            streams = job.streams
            T = len(streams)
            flips = np.zeros((T, n), dtype=bool)
            flip_free = float(table["shared_flip_free"])

            def apply_events(events) -> None:
                for probs, masks in events:
                    if not masks.any():
                        # Pure-Z noise never changes computational-basis
                        # outcomes; skipping it (deterministically, for every
                        # job alike) keeps stream consumption consistent.
                        continue
                    cumulative = np.cumsum(probs)
                    draws = np.fromiter(
                        (stream.random() for stream in streams), dtype=float, count=T
                    )
                    chosen = np.minimum(
                        np.searchsorted(cumulative, draws, side="right"),
                        len(cumulative) - 1,
                    )
                    np.logical_xor(flips, masks[chosen], out=flips)

            for entry in table["sequence"]:
                if entry[0] == "noise":
                    apply_events([(entry[1], entry[2])])
                    continue
                widx = entry[1]
                variant = job.variants[widx]
                if variant == "skip":
                    continue
                key = (widx, variant)
                cached = window_cache.get(key)
                if cached is None:
                    events = _variant_mask_events(
                        program, table["suffix_maps"], widx, variant
                    )
                    weight = 1.0
                    for probs, masks in events:
                        weight *= _flip_free_weight(probs, masks)
                    cached = (events, weight)
                    window_cache[key] = cached
                events, weight = cached
                flip_free *= weight
                if events:
                    used_variants.add(key)
                apply_events(events)

            if basis.shape[0]:
                free_bits = np.empty((T, basis.shape[0]), dtype=np.uint8)
                for t, stream in enumerate(streams):
                    free_bits[t] = stream.integers(0, 2, size=basis.shape[0])
                ideal_bits = ((free_bits @ basis.astype(np.uint8)) % 2).astype(bool)
                outcomes = base[None, :] ^ ideal_bits ^ flips
            else:
                outcomes = base[None, :] ^ flips

            positions = job.outputs if job.outputs is not None else tuple(range(n))
            out_bits = outcomes[:, list(positions)]
            for column, position in enumerate(positions):
                p01, p10 = readout[position]
                if p01 <= 0.0 and p10 <= 0.0:
                    continue
                draws = np.fromiter(
                    (stream.random() for stream in streams), dtype=float, count=T
                )
                flip = np.where(out_bits[:, column], draws < p10, draws < p01)
                out_bits[:, column] ^= flip

            if positions not in survival_cache:
                survival_cache[positions] = self._readout_survival(
                    base, basis, positions, readout
                )
            survival = survival_cache[positions]

            weight = 1.0 / T
            probabilities: Dict[str, float] = {}
            for row in out_bits:
                bits = "".join("1" if bit else "0" for bit in row)
                probabilities[bits] = probabilities.get(bits, 0.0) + weight
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
        if stats is not None:
            stats["window_variants"] = stats.get("window_variants", 0) + len(used_variants)
        return results

    # -- packed fast path ----------------------------------------------

    def _run_packed(self, program, jobs, stats=None):
        """Frame sampling on the packed symplectic kernels.

        The per-event/per-trajectory python loops of the pure path collapse
        into four vectorized passes per job: one ``Generator.random(size=E)``
        call per trajectory (a numpy Generator produces the identical stream
        whether drawn singly or in blocks, so consumption matches the pure
        loop draw for draw), one broadcast comparison against the stacked
        cumulative matrix to choose every branch at once, one XOR-gather over
        the stacked ``(events, branches, words)`` mask tensor, and one
        block-draw readout pass.  Unpacking happens only at the output
        boundary, bit column by bit column.
        """
        n = program.num_active
        W = symplectic.num_words(max(1, n))
        table = _noise_mask_table(program)
        base, basis = self._ideal_structure(program)
        base_words = symplectic.pack_rows(base, n)
        basis_words = symplectic.pack_rows(basis, n) if basis.shape[0] else None
        stack_cache: Dict[Tuple[object, ...], Dict[str, object]] = (
            program.engine_cache.setdefault("stabilizer_frame_stacks", {})
        )
        survival_cache: Dict[Tuple[int, ...], Optional[float]] = (
            program.engine_cache.setdefault("stabilizer_frame_survival", {})
        )
        readout = self._readout_rates(program)
        used_variants: set = set()
        results = []
        for job in jobs:
            streams = job.streams
            T = len(streams)
            key = tuple(job.variants)
            stack = stack_cache.get(key)
            if stack is None:
                stack = self._variant_stack(program, table, job.variants)
                stack_cache[key] = stack
            used_variants.update(stack["used"])

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
            # order) as the pure path's per-row joins.
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
        if stats is not None:
            stats["window_variants"] = stats.get("window_variants", 0) + len(used_variants)
        return results

    #: When more than this fraction of all (trajectory, event) draws leave
    #: the first branch, the sparse scatter-XOR stops winning and the dense
    #: gather kernel (numba-compiled where available) takes over.  The
    #: threshold only picks an implementation — both compute identical flips.
    _DENSE_GATHER_FRACTION = 0.05

    @staticmethod
    def _sample_flips(stack: Dict[str, object], draws: np.ndarray) -> np.ndarray:
        """Select every trajectory's branch per event and XOR the frame masks.

        Branch selection is one ``searchsorted`` into the offset-flattened
        cumulative matrix (event ``e``'s block shifted by ``2e``, so a draw
        ``u + 2e`` lands inside its own block and the result minus ``e * B``
        is exactly the pure loop's ``searchsorted(cum, u, side="right")``
        clipped to the branch count).  Because realistic noise leaves almost
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

        Walks the table sequence exactly like the pure loop: pure-Z events
        (no X-component in any branch) are dropped deterministically — they
        never consume a draw on either path — and window flip-free weights
        multiply into the running product in encounter order, so the float
        result matches the pure path bit for bit.  Cached per variants tuple
        in ``engine_cache["stabilizer_frame_stacks"]``; ragged branch counts
        are padded with cumulative 2.0 / zero masks.
        """
        window_cache: Dict[
            Tuple[int, object], Tuple[List[Tuple[np.ndarray, np.ndarray]], float]
        ] = program.engine_cache.setdefault("stabilizer_frame_windows:packed", {})
        applied: List[Tuple[np.ndarray, np.ndarray]] = []
        flip_free = float(table["shared_flip_free"])
        used: List[Tuple[int, object]] = []
        for entry in table["sequence"]:
            if entry[0] == "noise":
                if entry[2].any():
                    applied.append((np.cumsum(entry[1]), entry[2]))
                continue
            widx = entry[1]
            variant = variants[widx]
            if variant == "skip":
                continue
            key = (widx, variant)
            cached = window_cache.get(key)
            if cached is None:
                events = _variant_mask_events(
                    program, table["suffix_maps"], widx, variant
                )
                weight = 1.0
                for probs, masks in events:
                    weight *= _flip_free_weight(probs, masks)
                cached = (events, weight)
                window_cache[key] = cached
            events, weight = cached
            flip_free *= weight
            if events:
                used.append(key)
            for probs, masks in events:
                if masks.any():
                    applied.append((np.cumsum(probs), masks))
        E = len(applied)
        W = symplectic.num_words(max(1, program.num_active))
        B = max((c.shape[0] for c, _ in applied), default=1)
        cum = np.full((E, B), 2.0, dtype=float)
        masks_stack = np.zeros((E, B, W), dtype=np.uint64)
        counts = np.empty(E, dtype=np.int64)
        for e, (cumulative, masks) in enumerate(applied):
            branches = cumulative.shape[0]
            cum[e, :branches] = cumulative
            masks_stack[e, :branches] = masks
            counts[e] = branches
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
            "used": used,
        }

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

    def _ideal_structure(self, program) -> Tuple[np.ndarray, np.ndarray]:
        """Affine support of the ideal outcome: ``base ⊕ span(basis)``.

        A stabilizer state measured in the computational basis is uniform
        over an affine subspace; measuring the tableau once with forced-zero
        free bits gives the base point, and once per free bit (forced one)
        gives the subspace basis.  Mirror workloads are fully deterministic,
        so their basis is empty and every frame shares one ideal outcome.
        """
        cached = program.engine_cache.get("stabilizer_frames_ideal")
        if cached is not None:
            return cached
        n = program.num_active
        circuit = QuantumCircuit(n)
        for kind, payload in program.template:
            if kind == "op" and payload.gate is not None:
                circuit.append(
                    Gate(payload.gate.name, payload.positions, payload.gate.params)
                )
        final = StabilizerSimulator().run(circuit)
        rng = np.random.default_rng(0)

        def forced_pass(forced_free: Optional[int]) -> Tuple[np.ndarray, List[int]]:
            tableau = final.copy()
            bits = np.zeros(n, dtype=bool)
            free: List[int] = []
            for q in range(n):
                if tableau.is_deterministic(q):
                    bits[q] = bool(tableau.measure(q, rng))
                else:
                    free.append(q)
                    bits[q] = bool(
                        tableau.measure(q, rng, forced=1 if q == forced_free else 0)
                    )
            return bits, free

        base, free = forced_pass(None)
        basis = np.zeros((len(free), n), dtype=bool)
        for row, qubit in enumerate(free):
            bits, _ = forced_pass(qubit)
            basis[row] = bits ^ base
        structure = (base, basis)
        program.engine_cache["stabilizer_frames_ideal"] = structure
        return structure


register_engine(DensityMatrixEngine())
register_engine(TrajectoryEngine())
register_engine(StabilizerEngine())
register_engine(StabilizerFrameEngine())

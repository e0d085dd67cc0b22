"""The ADAPT framework: decoy-driven selection of the DD qubit subset.

This is the paper's primary contribution (Section 4, Figure 7): given a
compiled program, ADAPT

1. builds a decoy circuit that preserves the program's CNOT structure but has
   an efficiently computable ideal output,
2. scores DD combinations by executing the decoy (on the noisy backend model)
   with each candidate combination and measuring the decoy's fidelity,
3. searches the combination space with a localized, linear-complexity
   algorithm, and
4. returns the selected combination, ready to be applied to the input program.

Decoy scoring is the hot path (up to ``4 * N`` executions of the same decoy
circuit), so the scorer hands whole neighbourhoods to
:meth:`~repro.hardware.execution.NoisyExecutor.run_assignments`, which
compiles the decoy once into a
:class:`~repro.hardware.program.CompiledNoisyProgram` (Gate Sequence Table,
event template, memoized idle-window noise) shared across the batch.  For
Clifford decoys (``decoy_kind="cdc"``) the registry's ``"auto"`` policy
routes scoring through the stabilizer fast path — the paper's Insight #1
made executable.  Every decoy evaluation runs under its own seed derived
from the ADAPT seed and the evaluation index, so a selection does not depend
on how the search groups candidates into batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..circuits.circuit import QuantumCircuit
from ..dd.insertion import DDAssignment, DDPlan, materialize_dd_circuit, plan_dd
from ..metrics.fidelity import fidelity
from .decoy import DecoyCircuit, make_decoy
from .gst import GateSequenceTable
from .search import LocalizedSearch, SearchResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.execution import NoisyExecutor
    from ..transpiler.transpile import CompiledProgram

__all__ = ["AdaptConfig", "AdaptResult", "Adapt", "evaluation_seed"]


def evaluation_seed(base: int, index: int, domain: int = 0) -> int:
    """Deterministic per-evaluation seed from a base seed and eval index.

    ``domain`` separates consumers sharing one base seed (decoy scoring,
    the Runtime-Best oracle, final policy executions) so their streams are
    statistically independent — without it the oracle's candidate draws
    would collide with the final measurements they are compared against.
    """
    return int(
        np.random.SeedSequence([int(base), int(domain), int(index)]).generate_state(1)[0]
    )


@dataclass(frozen=True)
class AdaptConfig:
    """Tunable parameters of the ADAPT pass."""

    dd_sequence: str = "xy4"
    decoy_kind: str = "sdc"
    group_size: int = 4
    top_k_union: int = 2
    decoy_shots: int = 2048
    max_seed_qubits: int = 8
    min_idle_window_ns: Optional[float] = None
    #: Engine for decoy executions: ``"auto"`` (default) lets the registry
    #: pick — notably the stabilizer Clifford fast path for CDC decoys — or
    #: any registered engine name to force one.
    engine: str = "auto"


@dataclass
class AdaptResult:
    """Everything ADAPT produced for one program."""

    assignment: DDAssignment
    decoy: DecoyCircuit
    search: SearchResult
    program_qubits: tuple
    config: AdaptConfig

    @property
    def bitstring(self) -> str:
        return self.assignment.to_bitstring(self.program_qubits)

    @property
    def num_decoy_evaluations(self) -> int:
        return self.search.num_evaluations


class _DecoyScorer:
    """Scores a batch of DD candidates by decoy fidelity.

    Seeds are assigned by global evaluation index, so the scores do not
    depend on how candidates are grouped into batches.
    """

    def __init__(
        self,
        adapt: "Adapt",
        circuit: QuantumCircuit,
        ideal: Dict[str, float],
        gst: GateSequenceTable,
        output_qubits: Sequence[int],
    ) -> None:
        self._adapt = adapt
        self._circuit = circuit
        self._ideal = ideal
        self._gst = gst
        self._output_qubits = tuple(output_qubits)
        self._counter = 0

    def _next_seeds(self, count: int) -> List[int]:
        seeds = [
            evaluation_seed(self._adapt._base_seed, self._counter + i)
            for i in range(count)
        ]
        self._counter += count
        return seeds

    def __call__(self, assignments: Sequence[DDAssignment]) -> List[float]:
        config = self._adapt.config
        results = self._adapt.executor.run_assignments(
            self._circuit,
            list(assignments),
            dd_sequence=config.dd_sequence,
            shots=config.decoy_shots,
            output_qubits=self._output_qubits,
            gst=self._gst,
            seeds=self._next_seeds(len(assignments)),
            engine=config.engine,
        )
        return [fidelity(self._ideal, result.probabilities) for result in results]


class Adapt:
    """Adaptive Dynamical Decoupling selection pass.

    Args:
        executor: a :class:`~repro.hardware.execution.NoisyExecutor` (or any
            object with the same ``run_assignments`` signature) used to
            execute decoys.
        config: search / decoy options.
        seed: base seed for decoy scoring; every decoy evaluation derives its
            own stream from ``(seed, evaluation index)``.
    """

    def __init__(
        self,
        executor: "NoisyExecutor",
        config: Optional[AdaptConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.executor = executor
        self.config = config or AdaptConfig()
        if seed is None:
            seed = int(np.random.default_rng().integers(0, 2 ** 63))
        self._base_seed = int(seed)

    # ------------------------------------------------------------------

    def select(self, compiled: "CompiledProgram") -> AdaptResult:
        """Pick the DD qubit subset for a compiled program."""
        physical = compiled.physical_circuit
        gst = compiled.gst
        program_qubits = tuple(sorted(gst.active_qubits()))
        output_qubits = compiled.output_qubits

        decoy = make_decoy(
            physical,
            kind=self.config.decoy_kind,
            **(
                {"max_seed_qubits": self.config.max_seed_qubits}
                if self.config.decoy_kind == "sdc"
                else {}
            ),
        )
        decoy_ideal = decoy.ideal_distribution(output_qubits)
        decoy_gst = self.executor.backend.schedule(decoy.circuit)

        score = _DecoyScorer(self, decoy.circuit, decoy_ideal, decoy_gst, output_qubits)

        idle_time = {q: gst.total_idle_time(q) for q in program_qubits}
        search = LocalizedSearch(
            group_size=self.config.group_size,
            top_k_union=self.config.top_k_union,
        ).run(program_qubits, score, idle_time=idle_time)

        return AdaptResult(
            assignment=search.best,
            decoy=decoy,
            search=search,
            program_qubits=program_qubits,
            config=self.config,
        )

    # ------------------------------------------------------------------

    def plan(self, compiled: "CompiledProgram", result: Optional[AdaptResult] = None) -> DDPlan:
        """Build the DD plan for the selected assignment."""
        result = result or self.select(compiled)
        return plan_dd(
            compiled.gst,
            result.assignment,
            self.config.dd_sequence,
            min_window_ns=self.config.min_idle_window_ns,
        )

    def apply(self, compiled: "CompiledProgram") -> QuantumCircuit:
        """Return the executable with DD pulses inserted (Figure 7, step 4)."""
        result = self.select(compiled)
        dd_plan = self.plan(compiled, result)
        return materialize_dd_circuit(compiled.gst, dd_plan)

"""The four competing DD policies of the evaluation (Section 5.6).

* **No-DD** — the baseline: no idle window is protected.
* **All-DD** — DD on every program qubit during every eligible idle window
  (the indiscriminate policy the paper shows to be sub-optimal).
* **ADAPT** — the decoy-driven localized search of :class:`~repro.core.adapt.Adapt`.
* **Runtime-Best** — an oracle that evaluates DD combinations on the *actual*
  program (with its true ideal output) and keeps the best one.  The paper runs
  all 2^N combinations; for larger programs this implementation caps the
  budget and samples combinations uniformly (always including none and all),
  which is documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from ..dd.insertion import DDAssignment
from ..metrics.fidelity import fidelity
from .adapt import Adapt, AdaptConfig, evaluation_seed
from .search import all_assignments

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.execution import NoisyExecutor
    from ..transpiler.transpile import CompiledProgram

__all__ = [
    "PolicyDecision",
    "Policy",
    "NoDDPolicy",
    "AllDDPolicy",
    "AdaptPolicy",
    "RuntimeBestPolicy",
    "standard_policies",
]


@dataclass
class PolicyDecision:
    """A policy's output: the DD assignment plus bookkeeping."""

    policy: str
    assignment: DDAssignment
    num_evaluations: int = 0
    metadata: Dict[str, object] = None

    def __post_init__(self) -> None:
        if self.metadata is None:
            self.metadata = {}


class Policy:
    """Base class: a policy maps a compiled program to a DD assignment."""

    name = "base"

    def decide(self, compiled: "CompiledProgram") -> PolicyDecision:
        raise NotImplementedError


class NoDDPolicy(Policy):
    """Baseline: never apply DD."""

    name = "no_dd"

    def decide(self, compiled: "CompiledProgram") -> PolicyDecision:
        return PolicyDecision(policy=self.name, assignment=DDAssignment.none())


class AllDDPolicy(Policy):
    """Apply DD to every program qubit whenever it idles."""

    name = "all_dd"

    def decide(self, compiled: "CompiledProgram") -> PolicyDecision:
        qubits = compiled.gst.active_qubits()
        return PolicyDecision(policy=self.name, assignment=DDAssignment.all(qubits))


class AdaptPolicy(Policy):
    """The paper's contribution: decoy-driven localized selection."""

    name = "adapt"

    def __init__(
        self,
        executor: "NoisyExecutor",
        config: Optional[AdaptConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.adapt = Adapt(executor, config=config, seed=seed)

    def decide(self, compiled: "CompiledProgram") -> PolicyDecision:
        result = self.adapt.select(compiled)
        return PolicyDecision(
            policy=self.name,
            assignment=result.assignment,
            num_evaluations=result.num_decoy_evaluations,
            metadata={
                "bitstring": result.bitstring,
                "decoy_kind": result.decoy.kind,
            },
        )


class RuntimeBestPolicy(Policy):
    """Oracle: score combinations on the real program's true output."""

    name = "runtime_best"

    def __init__(
        self,
        executor: "NoisyExecutor",
        dd_sequence: str = "xy4",
        shots: int = 2048,
        max_exhaustive_qubits: int = 6,
        max_evaluations: int = 64,
        seed: Optional[int] = None,
        engine: str = "auto",
    ) -> None:
        self.executor = executor
        self.dd_sequence = dd_sequence
        self.shots = shots
        self.max_exhaustive_qubits = int(max_exhaustive_qubits)
        self.max_evaluations = int(max_evaluations)
        self.engine = engine
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def _candidate_assignments(self, qubits: Sequence[int]) -> List[DDAssignment]:
        qubits = list(qubits)
        # Sampling needs max_evaluations distinct subsets; with fewer than
        # that in the whole space, score them all instead of sampling forever.
        if (
            len(qubits) <= self.max_exhaustive_qubits
            or 2 ** len(qubits) < self.max_evaluations
        ):
            return all_assignments(qubits)
        candidates = [DDAssignment.none(), DDAssignment.all(qubits)]
        seen = {frozenset(), frozenset(qubits)}
        budget = max(0, self.max_evaluations - len(candidates))
        while len(candidates) < budget + 2:
            mask = self._rng.integers(0, 2, size=len(qubits))
            subset = frozenset(q for q, bit in zip(qubits, mask) if bit)
            if subset in seen:
                continue
            seen.add(subset)
            candidates.append(DDAssignment(subset))
        return candidates

    def decide(self, compiled: "CompiledProgram") -> PolicyDecision:
        # Function-level import: core.evaluation imports this module.
        from .evaluation import compiled_ideal_distribution

        qubits = compiled.gst.active_qubits()
        ideal = compiled_ideal_distribution(compiled)
        gst = compiled.gst
        candidates = self._candidate_assignments(qubits)
        # All candidates share the program: submit them as one batch with
        # per-candidate seeds so the oracle is reproducible.
        seeds = None
        if self._seed is not None:
            seeds = [
                evaluation_seed(self._seed, i, domain=1)
                for i in range(len(candidates))
            ]
        results = self.executor.run_assignments(
            compiled.physical_circuit,
            candidates,
            dd_sequence=self.dd_sequence,
            shots=self.shots,
            output_qubits=compiled.output_qubits,
            gst=gst,
            seeds=seeds,
            engine=self.engine,
        )
        best_assignment = DDAssignment.none()
        best_score = -1.0
        for assignment, result in zip(candidates, results):
            score = fidelity(ideal, result.probabilities)
            if score > best_score:
                best_score = score
                best_assignment = assignment
        return PolicyDecision(
            policy=self.name,
            assignment=best_assignment,
            num_evaluations=len(candidates),
            metadata={"best_score": best_score},
        )


def standard_policies(
    executor: "NoisyExecutor",
    adapt_config: Optional[AdaptConfig] = None,
    include_runtime_best: bool = True,
    seed: Optional[int] = None,
    max_evaluations: int = 64,
) -> List[Policy]:
    """The evaluation's four policies, in the paper's order.

    ``executor`` is shared by ADAPT's decoy scoring and the Runtime-Best
    oracle, so both reuse one compiled-program cache.  Both scoring policies
    take ``adapt_config``'s ``dd_sequence`` and ``engine``, so they rank
    candidates under one protocol and one engine policy.
    ``max_evaluations`` is the oracle's candidate budget.
    """
    config = adapt_config or AdaptConfig()
    policies: List[Policy] = [
        NoDDPolicy(),
        AllDDPolicy(),
        AdaptPolicy(executor, config=config, seed=seed),
    ]
    if include_runtime_best:
        policies.append(
            RuntimeBestPolicy(
                executor,
                dd_sequence=config.dd_sequence,
                max_evaluations=max_evaluations,
                seed=seed,
                engine=config.engine,
            )
        )
    return policies

"""Policy evaluation: run a benchmark under every DD policy and compare.

This is the machinery behind Figures 13-15 and Table 5: for one compiled
benchmark, each policy picks a DD assignment, the program is executed on the
noisy backend model with that assignment, and the TVD fidelity against the
program's noise-free output is recorded (absolute and relative to No-DD).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..circuits.circuit import QuantumCircuit
from ..dd.insertion import DDAssignment
from ..metrics.fidelity import fidelity, geometric_mean
from .adapt import evaluation_seed
from .ideal import PROGRAM_TIERS, ideal_distribution
from .policies import Policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hardware.execution import NoisyExecutor
    from ..transpiler.transpile import CompiledProgram

__all__ = [
    "PolicyOutcome",
    "BenchmarkEvaluation",
    "logical_ideal_distribution",
    "compiled_ideal_distribution",
    "evaluate_policies",
    "summarize_relative_fidelity",
]


def logical_ideal_distribution(circuit: QuantumCircuit) -> Dict[str, float]:
    """Noise-free output distribution of a logical circuit over all its qubits."""
    return ideal_distribution(circuit, range(circuit.num_qubits), PROGRAM_TIERS)


def compiled_ideal_distribution(compiled: "CompiledProgram") -> Dict[str, float]:
    """Ideal distribution of a compiled program, in logical bit order.

    Equal to :func:`logical_ideal_distribution` of the source program when the
    transpiler is correct; computed from the physical circuit so the
    Runtime-Best oracle does not need the logical circuit at all.  Both are
    tiered by :data:`~repro.core.ideal.PROGRAM_TIERS`.
    """
    return ideal_distribution(
        compiled.physical_circuit, compiled.output_qubits, PROGRAM_TIERS
    )


@dataclass
class PolicyOutcome:
    """Result of running one policy on one benchmark."""

    policy: str
    assignment: DDAssignment
    fidelity: float
    relative_fidelity: float
    dd_pulse_count: int
    num_evaluations: int
    metadata: Dict[str, object] = field(default_factory=dict)


@dataclass
class BenchmarkEvaluation:
    """All policy outcomes for one benchmark on one backend."""

    benchmark: str
    backend: str
    dd_sequence: str
    baseline_fidelity: float
    outcomes: Dict[str, PolicyOutcome] = field(default_factory=dict)

    def relative(self, policy: str) -> float:
        return self.outcomes[policy].relative_fidelity

    def best_policy(self) -> str:
        return max(self.outcomes.values(), key=lambda o: o.fidelity).policy

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "benchmark": self.benchmark,
            "backend": self.backend,
            "dd_sequence": self.dd_sequence,
            "baseline_fidelity": self.baseline_fidelity,
        }
        for name, outcome in self.outcomes.items():
            row[f"{name}_fidelity"] = outcome.fidelity
            row[f"{name}_relative"] = outcome.relative_fidelity
        return row


def evaluate_policies(
    compiled: "CompiledProgram",
    policies: Sequence[Policy],
    executor: "NoisyExecutor",
    dd_sequence: str = "xy4",
    shots: int = 4096,
    benchmark_name: Optional[str] = None,
    seed: Optional[int] = None,
    engine: str = "auto_dense",
) -> BenchmarkEvaluation:
    """Run every policy on a compiled benchmark and compare fidelities.

    The final per-policy program executions run as one shared-program batch
    on ``executor``.

    Args:
        seed: gives each final execution its own deterministic per-policy
            stream.  Without it the executions draw their seeds from the
            executor's own stream, one per policy in order.
        engine: execution engine for the final per-policy runs.  These are
            the *measured* fidelities of the evaluation, so the default
            ``"auto_dense"`` keeps them on the exact dense engines even for
            Clifford benchmarks; decoy scoring inside the policies is where
            the stabilizer fast path applies.
    """
    ideal = compiled_ideal_distribution(compiled)
    gst = compiled.gst
    evaluation = BenchmarkEvaluation(
        benchmark=benchmark_name or compiled.logical_circuit.name,
        backend=executor.backend.name,
        dd_sequence=dd_sequence,
        baseline_fidelity=0.0,
    )

    decisions = [policy.decide(compiled) for policy in policies]
    baseline_fidelity: Optional[float] = None
    seeds = None
    if seed is not None:
        seeds = [evaluation_seed(seed, i, domain=2) for i in range(len(decisions))]
    results = executor.run_assignments(
        compiled.physical_circuit,
        [decision.assignment for decision in decisions],
        dd_sequence=dd_sequence,
        shots=shots,
        output_qubits=compiled.output_qubits,
        gst=gst,
        seeds=seeds,
        engine=engine,
    )

    for decision, result in zip(decisions, results):
        value = fidelity(ideal, result.probabilities)
        if decision.policy == "no_dd":
            baseline_fidelity = value
        evaluation.outcomes[decision.policy] = PolicyOutcome(
            policy=decision.policy,
            assignment=decision.assignment,
            fidelity=value,
            relative_fidelity=0.0,
            dd_pulse_count=result.dd_pulse_count,
            num_evaluations=decision.num_evaluations,
            metadata=dict(decision.metadata),
        )

    if baseline_fidelity is None:
        baseline_fidelity = min(o.fidelity for o in evaluation.outcomes.values())
    baseline_fidelity = max(baseline_fidelity, 1e-6)
    evaluation.baseline_fidelity = baseline_fidelity
    for outcome in evaluation.outcomes.values():
        outcome.relative_fidelity = outcome.fidelity / baseline_fidelity
    return evaluation


def summarize_relative_fidelity(
    evaluations: Sequence[BenchmarkEvaluation], policy: str
) -> Dict[str, float]:
    """Min / geometric-mean / max of a policy's relative fidelity (Table 5)."""
    values = [e.relative(policy) for e in evaluations if policy in e.outcomes]
    if not values:
        raise ValueError(f"no evaluations contain policy '{policy}'")
    return {
        "min": float(min(values)),
        "gmean": geometric_mean(values),
        "max": float(max(values)),
    }

"""Application-level evaluation: Figures 13, 14, 15 and Table 5.

For every benchmark of the Table 4 suite and every target machine, the four
policies (No-DD, All-DD, ADAPT, Runtime-Best) are compared for the XY4 and
IBMQ-DD protocols.  Full sweeps are expensive (ADAPT alone performs up to 4N
decoy executions per benchmark), so each driver accepts a benchmark subset and
shot/trajectory budget; the defaults used by the benchmark harness are the
"fast" configuration documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.adapt import AdaptConfig
from ..core.evaluation import (
    BenchmarkEvaluation,
    evaluate_policies,
    summarize_relative_fidelity,
)
from ..core.policies import standard_policies
from ..hardware.backend import Backend
from ..hardware.execution import NoisyExecutor
from ..transpiler.transpile import transpile
from ..workloads.suite import get_benchmark

__all__ = [
    "EvaluationConfig",
    "run_policy_comparison",
    "run_machine_evaluation",
    "table5_summary",
    "FIGURE13_BENCHMARKS",
    "FIGURE14_BENCHMARKS",
    "FIGURE15_BENCHMARKS",
]

#: Benchmarks shown in each results figure (paper Section 6).
FIGURE13_BENCHMARKS = ("BV-7", "QFT-6A", "QFT-6B", "QAOA-8A", "QPEA-5")
FIGURE14_BENCHMARKS = ("BV-7", "QFT-6A", "QAOA-8A", "QAOA-10A")
FIGURE15_BENCHMARKS = ("BV-8", "QFT-7A", "QFT-7B", "QAOA-10B", "QPEA-5")


@dataclass
class EvaluationConfig:
    """Budget knobs for a policy-comparison run."""

    dd_sequence: str = "xy4"
    shots: int = 4096
    decoy_shots: int = 2048
    trajectories: int = 100
    include_runtime_best: bool = True
    runtime_best_max_evaluations: int = 32
    seed: int = 7
    adapt_decoy_kind: str = "sdc"
    adapt_group_size: int = 4
    #: Execution engine for decoy scoring (a ranking context): ``"auto"``
    #: resolves through the shared registry policy, i.e. the stabilizer fast
    #: path for Clifford decoys and the dense engines otherwise.
    engine: str = "auto"
    #: Execution engine for the final per-policy executions (the *measured*
    #: fidelities of Figures 13-15 / Table 5): ``"auto_dense"`` keeps them on
    #: the exact dense engines even for Clifford benchmarks.
    final_engine: str = "auto_dense"


def run_policy_comparison(
    benchmark: str,
    backend: Backend,
    config: Optional[EvaluationConfig] = None,
) -> BenchmarkEvaluation:
    """Evaluate the four policies on one benchmark / backend pair.

    Every call constructs fresh, explicitly seeded policies, so the result is
    a pure function of its arguments; the ``policy_comparison`` task kind
    stores it under the key of those arguments.
    """
    config = config or EvaluationConfig()
    circuit = get_benchmark(benchmark).build()
    compiled = transpile(circuit, backend)
    # One executor, hence one compile cache, serves decoy scoring, the
    # Runtime-Best oracle and the final policy executions.
    executor = NoisyExecutor(
        backend, seed=config.seed, trajectories=config.trajectories
    )
    adapt_config = AdaptConfig(
        dd_sequence=config.dd_sequence,
        decoy_kind=config.adapt_decoy_kind,
        group_size=config.adapt_group_size,
        decoy_shots=config.decoy_shots,
        engine=config.engine,
    )
    policies = standard_policies(
        executor,
        adapt_config=adapt_config,
        include_runtime_best=config.include_runtime_best,
        seed=config.seed,
        max_evaluations=config.runtime_best_max_evaluations,
    )
    return evaluate_policies(
        compiled,
        policies,
        executor,
        dd_sequence=config.dd_sequence,
        shots=config.shots,
        benchmark_name=benchmark,
        seed=config.seed,
        engine=config.final_engine,
    )


def run_machine_evaluation(
    device_name: str,
    benchmarks: Sequence[str],
    config: Optional[EvaluationConfig] = None,
    calibration_cycle: int = 0,
) -> List[BenchmarkEvaluation]:
    """Figure 13/14/15 driver: all benchmarks of one figure on one machine.

    Benchmarks run one after another.  To store the results, or to spread a
    figure over processes or machines, run it as a ``policy_comparison``
    sweep (``repro sweep [--workers N] [--join]``) or submit it to
    ``repro serve``.
    """
    config = config or EvaluationConfig()
    backend = Backend.from_name(device_name, cycle=calibration_cycle)
    return [run_policy_comparison(benchmark, backend, config) for benchmark in benchmarks]


def table5_summary(
    evaluations_by_machine: Dict[str, List[BenchmarkEvaluation]],
    policies: Sequence[str] = ("all_dd", "adapt"),
) -> List[Dict[str, object]]:
    """Table 5: min / gmean / max relative fidelity per machine and policy."""
    rows: List[Dict[str, object]] = []
    for machine, evaluations in evaluations_by_machine.items():
        row: Dict[str, object] = {"machine": machine}
        for policy in policies:
            try:
                summary = summarize_relative_fidelity(evaluations, policy)
            except ValueError:
                continue
            row[f"{policy}_min"] = summary["min"]
            row[f"{policy}_gmean"] = summary["gmean"]
            row[f"{policy}_max"] = summary["max"]
        rows.append(row)
    return rows

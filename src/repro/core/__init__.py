"""The paper's primary contribution: GST, decoys, search, policies, ADAPT."""

from .gst import DurationModel, GateSequenceTable, IdleWindow, ScheduledGate
from .decoy import DecoyCircuit, clifford_decoy, make_decoy, seeded_decoy, trivial_decoy
from .search import LocalizedSearch, ScoredAssignment, SearchResult, all_assignments
from .adapt import Adapt, AdaptConfig, AdaptResult
from .policies import (
    AdaptPolicy,
    AllDDPolicy,
    NoDDPolicy,
    Policy,
    PolicyDecision,
    RuntimeBestPolicy,
    standard_policies,
)
from .evaluation import (
    BenchmarkEvaluation,
    PolicyOutcome,
    compiled_ideal_distribution,
    evaluate_policies,
    logical_ideal_distribution,
    summarize_relative_fidelity,
)

__all__ = [
    "Adapt",
    "AdaptConfig",
    "AdaptPolicy",
    "AdaptResult",
    "AllDDPolicy",
    "BenchmarkEvaluation",
    "DecoyCircuit",
    "DurationModel",
    "GateSequenceTable",
    "IdleWindow",
    "LocalizedSearch",
    "NoDDPolicy",
    "Policy",
    "PolicyDecision",
    "PolicyOutcome",
    "RuntimeBestPolicy",
    "ScheduledGate",
    "ScoredAssignment",
    "SearchResult",
    "all_assignments",
    "clifford_decoy",
    "compiled_ideal_distribution",
    "evaluate_policies",
    "logical_ideal_distribution",
    "make_decoy",
    "seeded_decoy",
    "standard_policies",
    "summarize_relative_fidelity",
    "trivial_decoy",
]

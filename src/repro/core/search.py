"""Search over DD qubit combinations.

The space of DD combinations is 2^N for an N-qubit program (Section 4.3).
:class:`LocalizedSearch` is ADAPT's divide-and-conquer: qubits are split into
neighbourhoods of (by default) four, each neighbourhood is searched
exhaustively (16 combinations) while previously fixed neighbourhoods keep
their selection, and the per-neighbourhood choice is the conservative union
of the two best-scoring combinations.  Total cost is at most ``4 * N`` decoy
evaluations — linear in the number of qubits.

Callers that need every combination (the Figure 8/9 sweep and the
Runtime-Best oracle) enumerate it with :func:`all_assignments` and execute
it as one batch themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..dd.insertion import DDAssignment

__all__ = [
    "ScoredAssignment",
    "SearchResult",
    "LocalizedSearch",
    "all_assignments",
]

#: Scores a batch of DD assignments (higher is better, e.g. decoy fidelity),
#: one score per assignment, in order.  The search hands over one whole
#: neighbourhood per call, so every candidate of a neighbourhood executes
#: against one cached :class:`~repro.hardware.program.CompiledNoisyProgram`
#: (for Clifford decoys, on the stabilizer fast path).
ScoreFunction = Callable[[Sequence[DDAssignment]], Sequence[float]]


@dataclass(frozen=True)
class ScoredAssignment:
    """One evaluated DD combination."""

    assignment: DDAssignment
    score: float
    bitstring: str


@dataclass
class SearchResult:
    """Outcome of a search: the selected assignment plus the full trace."""

    best: DDAssignment
    evaluations: List[ScoredAssignment] = field(default_factory=list)

    @property
    def num_evaluations(self) -> int:
        return len(self.evaluations)


def all_assignments(qubits: Sequence[int]) -> List[DDAssignment]:
    """Every subset of ``qubits`` as a DD assignment (2^N entries)."""
    qubits = list(qubits)
    assignments = []
    for bits in itertools.product("01", repeat=len(qubits)):
        assignments.append(DDAssignment.from_bitstring("".join(bits), qubits))
    return assignments


class LocalizedSearch:
    """ADAPT's linear-complexity neighbourhood search (Section 4.3)."""

    def __init__(self, group_size: int = 4, top_k_union: int = 2) -> None:
        if group_size < 1:
            raise ValueError("group_size must be at least 1")
        if top_k_union < 1:
            raise ValueError("top_k_union must be at least 1")
        self.group_size = int(group_size)
        self.top_k_union = int(top_k_union)

    # ------------------------------------------------------------------

    def group_qubits(
        self, qubits: Sequence[int], idle_time: Optional[Dict[int, float]] = None
    ) -> List[List[int]]:
        """Partition qubits into neighbourhoods of ``group_size``.

        Neighbourhoods are formed in decreasing order of idle time (qubits
        with the most to gain from DD are decided first); without idle times
        they follow index order.
        """
        qubits = list(qubits)
        if idle_time:
            ordered = sorted(qubits, key=lambda q: -idle_time.get(q, 0.0))
        else:
            ordered = sorted(qubits)
        return [
            ordered[i : i + self.group_size]
            for i in range(0, len(ordered), self.group_size)
        ]

    def run(
        self,
        qubits: Sequence[int],
        score: ScoreFunction,
        idle_time: Optional[Dict[int, float]] = None,
    ) -> SearchResult:
        """Run the localized search and return the selected assignment.

        ``score`` is called once per neighbourhood with its 2^k candidates.
        """
        groups = self.group_qubits(qubits, idle_time)
        selected: set = set()
        evaluations: List[ScoredAssignment] = []
        all_qubits = list(qubits)

        for group in groups:
            subsets: List[frozenset] = []
            candidates: List[DDAssignment] = []
            for bits in itertools.product("01", repeat=len(group)):
                group_subset = frozenset(
                    q for bit, q in zip(bits, group) if bit == "1"
                )
                subsets.append(group_subset)
                candidates.append(DDAssignment(frozenset(selected | group_subset)))
            values = [float(v) for v in score(candidates)]
            if len(values) != len(candidates):
                raise ValueError(
                    f"scorer returned {len(values)} scores for {len(candidates)} assignments"
                )
            group_scores: List[Tuple[float, frozenset]] = []
            for candidate, value, group_subset in zip(candidates, values, subsets):
                evaluations.append(
                    ScoredAssignment(
                        assignment=candidate,
                        score=value,
                        bitstring=candidate.to_bitstring(all_qubits),
                    )
                )
                group_scores.append((value, group_subset))
            # Conservative estimate: union of the top-k group choices
            # (Section 4.3's "1001" + "1011" -> "1011" example).
            group_scores.sort(key=lambda item: -item[0])
            union: set = set()
            for _, subset in group_scores[: self.top_k_union]:
                union |= set(subset)
            selected |= union

        best = DDAssignment(frozenset(selected))
        return SearchResult(best=best, evaluations=evaluations)

    def expected_evaluations(self, num_qubits: int) -> int:
        """Number of decoy evaluations the search will perform."""
        full_groups, remainder = divmod(num_qubits, self.group_size)
        count = full_groups * (2 ** self.group_size)
        if remainder:
            count += 2 ** remainder
        return count

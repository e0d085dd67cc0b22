"""Reliability metrics: TVD-based fidelity and related distribution distances.

The paper quantifies program reliability as ``Fidelity = 1 - TVD(P, Q)``
(Equations 2-3) where ``P`` is the ideal output distribution and ``Q`` the
distribution observed on hardware.  This module implements that metric plus
the auxiliary quantities used across the evaluation: success probability,
Hellinger distance, Shannon entropy of decoy outputs (used to motivate SDCs)
and geometric means for the Table 5 summaries.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping

import numpy as np

__all__ = [
    "normalize_counts",
    "total_variation_distance",
    "fidelity",
    "success_probability",
    "hellinger_distance",
    "shannon_entropy",
    "normalized_entropy",
    "geometric_mean",
    "relative_fidelity",
]

Distribution = Mapping[str, float]


def normalize_counts(counts: Mapping[str, float]) -> Dict[str, float]:
    """Convert counts (or unnormalised weights) to a probability distribution."""
    # Sorting here would reorder the float summation and break bit-identity
    # with metrics already stored under SCHEMA_VERSION 3.
    # repro: allow[REP102] -- insertion order is deterministic per counts payload
    total = float(sum(counts.values()))
    if total <= 0:
        raise ValueError("counts must have positive total weight")
    return {key: value / total for key, value in counts.items()}


def total_variation_distance(p: Distribution, q: Distribution) -> float:
    """TVD between two distributions over bitstrings (Equation 2).

    Keys are summed in sorted order: set iteration follows the
    hash-randomized string order, which made the trailing float bits differ
    across interpreter processes — sorted summation keeps stored metrics
    bit-identical to recomputed ones.
    """
    p = normalize_counts(p)
    q = normalize_counts(q)
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def fidelity(ideal: Distribution, observed: Distribution) -> float:
    """Program fidelity ``1 - TVD`` (Equation 3); 1 = identical distributions."""
    return 1.0 - total_variation_distance(ideal, observed)


def relative_fidelity(ideal: Distribution, observed: Distribution, baseline: Distribution) -> float:
    """Fidelity of ``observed`` normalised to the fidelity of ``baseline``."""
    base = fidelity(ideal, baseline)
    if base <= 0:
        raise ValueError("baseline fidelity must be positive")
    return fidelity(ideal, observed) / base


def success_probability(ideal: Distribution, observed: Distribution) -> float:
    """Probability mass the observed distribution places on ideal solutions.

    "Ideal solutions" are the outcomes carrying at least half of the maximum
    ideal probability, which handles programs with several correct answers.
    """
    ideal = normalize_counts(ideal)
    observed = normalize_counts(observed)
    threshold = 0.5 * max(ideal.values())
    winners = sorted(key for key, value in ideal.items() if value >= threshold)
    return sum(observed.get(key, 0.0) for key in winners)


def hellinger_distance(p: Distribution, q: Distribution) -> float:
    """Hellinger distance (in [0, 1]) between two distributions."""
    p = normalize_counts(p)
    q = normalize_counts(q)
    keys = sorted(set(p) | set(q))
    total = sum(
        (math.sqrt(p.get(k, 0.0)) - math.sqrt(q.get(k, 0.0))) ** 2 for k in keys
    )
    return math.sqrt(total / 2.0)


def shannon_entropy(distribution: Distribution) -> float:
    """Shannon entropy in bits."""
    probs = normalize_counts(distribution)
    # sorted() would change the float accumulation order and the trailing
    # bits of entropy values already stored by earlier sweeps.
    # repro: allow[REP102] -- probs preserves deterministic insertion order
    return -sum(p * math.log2(p) for p in probs.values() if p > 0)


def normalized_entropy(distribution: Distribution, num_bits: int) -> float:
    """Entropy divided by its maximum (``num_bits``); 1 = uniform output.

    High-entropy decoys are insensitive to idling errors, which is the
    limitation of plain CDCs that Seeded Decoy Circuits fix (Section 4.2.3).
    """
    if num_bits <= 0:
        raise ValueError("num_bits must be positive")
    return shannon_entropy(distribution) / num_bits


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the Table 5 "GMean" summary)."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean needs at least one value")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return float(np.exp(np.mean(np.log(values))))

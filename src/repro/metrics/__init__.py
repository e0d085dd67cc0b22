"""Reliability metrics: TVD fidelity, correlations, entropies, summaries."""

from .fidelity import (
    fidelity,
    geometric_mean,
    hellinger_distance,
    normalize_counts,
    normalized_entropy,
    relative_fidelity,
    shannon_entropy,
    success_probability,
    total_variation_distance,
)
from .correlation import rank_agreement, spearman_correlation

__all__ = [
    "fidelity",
    "geometric_mean",
    "hellinger_distance",
    "normalize_counts",
    "normalized_entropy",
    "rank_agreement",
    "relative_fidelity",
    "shannon_entropy",
    "spearman_correlation",
    "success_probability",
    "total_variation_distance",
]

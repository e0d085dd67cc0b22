"""Rank correlation between decoy and input-circuit fidelity trends.

The paper validates decoy circuits with Spearman's rank correlation
coefficient between the fidelity of the actual circuit and the fidelity of its
decoy across all DD combinations (Figure 9, Table 2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["spearman_correlation", "rank_agreement"]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # First sorted position of every run of equal values, and the run lengths.
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, len(values)])
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def spearman_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman's rho between two equally long sequences.

    The Pearson correlation of the two average-rank vectors (ties share the
    mean of their ranks); 0.0 when either input is constant or contains NaN.
    """
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if len(a) < 3:
        raise ValueError("need at least three points for a rank correlation")
    values_a = np.asarray(a, dtype=float)
    values_b = np.asarray(b, dtype=float)
    if np.isnan(values_a).any() or np.isnan(values_b).any():
        return 0.0
    if (values_a == values_a[0]).all() or (values_b == values_b[0]).all():
        return 0.0
    ranks = np.column_stack((_average_ranks(values_a), _average_ranks(values_b)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _top_set(values: np.ndarray, top_k: int) -> set:
    """Indices of every value tied with or above the k-th largest value.

    ``np.argsort`` tie-breaks by input index, which made the score depend on
    sequence order for tied inputs; including the whole tie group makes the
    result deterministic and order-independent.
    """
    threshold = np.sort(values)[-top_k]
    return set(np.flatnonzero(values >= threshold))


def rank_agreement(a: Sequence[float], b: Sequence[float], top_k: int = 1) -> float:
    """Overlap of the top-k entries of ``a`` with the top-k entries of ``b``.

    A coarse "did the decoy pick a good combination" score used in ablations.
    Values tied with the k-th largest are all treated as top-k, so the score
    is invariant under reordering of the inputs; the overlap is normalised by
    the larger of the two (possibly tie-expanded) sets, which reduces to the
    plain ``|top_a ∩ top_b| / k`` whenever there are no ties.
    """
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    if not 1 <= top_k <= len(a):
        raise ValueError("top_k must be between 1 and the sequence length")
    values_a = np.asarray(a, dtype=float)
    values_b = np.asarray(b, dtype=float)
    # NaNs have no rank: the threshold comparison would silently empty the
    # top sets (and divide by zero), so fail loudly instead.
    if not (np.isfinite(values_a).all() and np.isfinite(values_b).all()):
        raise ValueError("rank_agreement requires finite values")
    top_a = _top_set(values_a, top_k)
    top_b = _top_set(values_b, top_k)
    return len(top_a & top_b) / max(len(top_a), len(top_b))

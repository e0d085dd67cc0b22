"""The benchmark's arithmetic: medians, the tail-percentile rule, span self
time and burst throughput.  Pure functions over plain numbers, so the tests
in ``test_perfbench.py`` can pin them on synthetic inputs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A reported tail percentile must have at least this many samples beyond it.
TAIL_SAMPLES = 10


def median(values: Iterable[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank percentile: the smallest sample with at least
    ``percentile`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(values: Sequence[float]) -> Tuple[Optional[int], int]:
    """The highest whole percentile (up to 99) that keeps at least
    :data:`TAIL_SAMPLES` samples strictly beyond its nearest rank.

    Returns ``(percentile, sample_count)``; the percentile is ``None`` when
    no percentile qualifies (fewer than ``TAIL_SAMPLES + 1`` samples).
    """
    n = len(values)
    for percentile in range(99, 0, -1):
        rank = max(1, math.ceil(percentile / 100.0 * n))
        if n - rank >= TAIL_SAMPLES:
            return percentile, n
    return None, n


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Summed self time per span name.

    A span's self time is its duration minus the part of its interval that
    its direct children cover; overlapping children are counted once (their
    intervals are merged before subtraction) and children are clipped to the
    parent's interval.  ``spans`` are mappings with ``id``, ``parent`` (an id
    or ``None``), ``name``, ``start`` and ``end``.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (float(span["start"]), float(span["end"]))
            )
    totals: Dict[str, float] = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(span["id"], [])):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        name = str(span["name"])
        totals[name] = totals.get(name, 0.0) + max(0.0, end - start - covered)
    return totals


def burst_throughput(bursts: Sequence[Sequence[Tuple[float, float]]]) -> float:
    """Settled requests per second of summed burst spans.

    Each burst is a list of ``(submit_start, finished_at)`` pairs; its span
    runs from its first submit to its last finish, so the idle gaps between
    bursts (the closed-loop generator collecting results) are not counted.
    """
    settled = 0
    busy = 0.0
    for burst in bursts:
        if not burst:
            continue
        settled += len(burst)
        busy += max(end for _, end in burst) - min(start for start, _ in burst)
    if busy <= 0.0:
        raise ValueError("bursts span no time")
    return settled / busy

"""Encoders from driver result objects to store records.

Every encoder returns a ``(meta, arrays)`` pair: ``meta`` is a JSON-safe dict
(the manifest payload, always carrying a ``kind`` discriminator), ``arrays``
maps names to numpy arrays for bulk numeric data (fidelity trends, probe
grids).  The task kinds of :mod:`repro.runtime.tasks` store these payloads
under their task keys; readers (``repro report``, ``sweep_summary``) consume
the payloads as they are, so no decoder exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.decoy_quality import DecoyCorrelation
    from ..core.evaluation import BenchmarkEvaluation

__all__ = [
    "jsonable",
    "encode_evaluation",
    "encode_decoy_correlation",
    "encode_rows",
]

Arrays = Dict[str, np.ndarray]


def jsonable(value):
    """Best-effort reduction of metadata values into JSON-safe primitives.

    Policy metadata may carry numpy scalars or arbitrary tags; anything not
    representable is stringified rather than dropped (the metadata is
    diagnostic, not part of the key).
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ---------------------------------------------------------------------------
# BenchmarkEvaluation (evaluate_policies / Figures 13-15 / Table 5)
# ---------------------------------------------------------------------------


def encode_evaluation(evaluation: "BenchmarkEvaluation") -> Tuple[dict, Arrays]:
    meta = {
        "kind": "benchmark_evaluation",
        "benchmark": evaluation.benchmark,
        "backend": evaluation.backend,
        "dd_sequence": evaluation.dd_sequence,
        "baseline_fidelity": float(evaluation.baseline_fidelity),
        "outcomes": {
            name: {
                "policy": outcome.policy,
                "dd_qubits": sorted(outcome.assignment.qubits),
                "fidelity": float(outcome.fidelity),
                "relative_fidelity": float(outcome.relative_fidelity),
                "dd_pulse_count": int(outcome.dd_pulse_count),
                "num_evaluations": int(outcome.num_evaluations),
                "metadata": jsonable(outcome.metadata),
            }
            for name, outcome in evaluation.outcomes.items()
        },
    }
    return meta, {}


# ---------------------------------------------------------------------------
# DecoyCorrelation (Figure 9 / Table 2)
# ---------------------------------------------------------------------------


def encode_decoy_correlation(result: "DecoyCorrelation") -> Tuple[dict, Arrays]:
    meta = {
        "kind": "decoy_correlation",
        "benchmark": result.benchmark,
        "backend": result.backend,
        "decoy_kind": result.decoy_kind,
        "correlation": float(result.correlation),
        "decoy_sim_time_s": float(result.decoy_sim_time_s),
        "bitstrings": list(result.bitstrings),
    }
    arrays = {
        "actual_trend": np.asarray(result.actual_trend, dtype=float),
        "decoy_trend": np.asarray(result.decoy_trend, dtype=float),
    }
    return meta, arrays


# ---------------------------------------------------------------------------
# Generic row tables (motivation / characterization drivers)
# ---------------------------------------------------------------------------


def encode_rows(kind: str, rows: List[dict]) -> Tuple[dict, Arrays]:
    """Encode a list-of-dicts driver result (Table 1 rows, probe studies)."""
    return {"kind": kind, "rows": [jsonable(row) for row in rows]}, {}

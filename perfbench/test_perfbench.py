"""The benchmark's own arithmetic and output checks, on synthetic inputs.

Run with ``python3 -m pytest perfbench -q`` from the checkout root.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import serve  # noqa: E402
from stats import (  # noqa: E402
    burst_throughput,
    median,
    nearest_rank,
    self_times,
    tail_percentile,
)


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99), (1056, 99), (999, 98), (500, 98), (100, 90), (20, 50), (11, 9), (10, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(n, expected):
    percentile, count = tail_percentile([float(i) for i in range(n)])
    assert (percentile, count) == (expected, n)
    if percentile is not None:
        value = nearest_rank(list(range(n)), percentile)
        assert sum(1 for v in range(n) if v > value) >= 10
        # One percentile higher would leave fewer than ten beyond it.
        if percentile < 99:
            above = nearest_rank(list(range(n)), percentile + 1)
            assert sum(1 for v in range(n) if v > above) < 10


def test_nearest_rank_and_median():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 80) == 4.0
    assert nearest_rank(values, 81) == 5.0
    assert median(values) == 3.0
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5


def _span(span_id, parent, name, start, end):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, "root", 0.0, 10.0),
        _span(1, 0, "child", 1.0, 4.0),
        _span(2, 0, "child", 3.0, 6.0),  # overlaps the first child by 1s
        _span(3, 0, "late", 8.0, 12.0),  # runs past the parent: clipped to 2s
        _span(4, 1, "grandchild", 1.5, 2.5),  # only reduces its own parent
    ]
    totals = self_times(spans)
    assert totals["root"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["child"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert totals["grandchild"] == pytest.approx(1.0)
    assert totals["late"] == pytest.approx(4.0)


def test_self_time_of_nested_children_sums_to_root_wall():
    spans = [
        _span(0, None, "root", 0.0, 6.0),
        _span(1, 0, "a", 0.0, 2.0),
        _span(2, 0, "b", 2.0, 5.0),
        _span(3, 2, "c", 3.0, 4.0),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(6.0)


def test_burst_throughput_excludes_gaps_between_bursts():
    bursts = [
        [(0.0, 1.0), (0.5, 2.0)],  # span 2s
        [(100.0, 100.5), (100.2, 101.0)],  # span 1s, long idle gap before it
    ]
    assert burst_throughput(bursts) == pytest.approx(4 / 3.0)
    with pytest.raises(ValueError):
        burst_throughput([[(1.0, 1.0)]])


def test_request_plan_shape_and_resubmission_share():
    plan = serve.request_plan(seed=3, bursts=22)
    assert plan == serve.request_plan(seed=3, bursts=22)
    assert plan != serve.request_plan(seed=4, bursts=22)
    requests = [entry for burst in plan for entry in burst]
    assert len(requests) == 22 * serve.BURST >= serve.MIN_REQUESTS
    for b, burst in enumerate(plan):
        tenants = [tenant for tenant, _, _ in burst]
        assert tenants[:4] == ["t0", "t1", "t2", "t3"]
        assert all(tenants.count(f"t{t}") == serve.PER_TENANT for t in range(serve.TENANTS))
        resubmitted = [params for _, params, again in burst if again]
        assert len(resubmitted) == (0 if b == 0 else serve.BURST // 4)
        earlier = [p for prior in plan[:b] for _, p, again in prior if not again]
        assert all(params in earlier for params in resubmitted)
    fresh = [params for _, params, again in requests if not again]
    assert len({json.dumps(p, sort_keys=True) for p in fresh}) == len(fresh)
    assert {p["shots"] for p in fresh} == set(serve.SHOTS)
    assert {(p["device"], p["benchmark"]) for p in fresh} == {
        tuple(context) for context in serve.CONTEXTS
    }


def _run(tmp_path, reference, seed=0):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    args = run.parse_args(
        ["--workload", "mirror-255", "--seed", str(seed), "--reference", str(path)]
    )
    return run.Run(args)


MIRROR_POINT = {
    "benchmark": "MIRROR:255@7",
    "num_swaps": 942,
    "gate_count": 5731,
    "engine": "stabilizer_frames",
    "num_active_qubits": 255,
    "verified": True,
}


def test_mirror_check_passes_on_reference_and_fails_on_corruption(tmp_path):
    good = _run(tmp_path, {"seed": 0, "mirror-255": {"num_swaps": 942, "gate_count": 5731}})
    run.check_mirror(good, {"point": MIRROR_POINT})
    assert (good.attempted, good.failed) == (1, 0)

    corrupted = _run(tmp_path, {"seed": 0, "mirror-255": {"num_swaps": 941, "gate_count": 5731}})
    run.check_mirror(corrupted, {"point": MIRROR_POINT})
    assert (corrupted.attempted, corrupted.failed) == (1, 1)

    unverified = _run(tmp_path, {"seed": 3})
    run.check_mirror(unverified, {"point": {**MIRROR_POINT, "verified": False}})
    assert unverified.failed == 1


def test_reference_applies_to_the_default_seed_only(tmp_path):
    corrupted = _run(tmp_path, {"seed": 0, "mirror-255": {"num_swaps": 1}}, seed=5)
    run.check_mirror(corrupted, {"point": MIRROR_POINT})
    assert corrupted.failed == 0


def test_paper_check_fails_on_a_corrupted_selection(tmp_path):
    outcomes = {
        "no_dd": {"dd_qubits": [], "evaluations": 0},
        "all_dd": {"dd_qubits": [1, 2], "evaluations": 0},
        "adapt": {"dd_qubits": [1], "evaluations": 8},
        "runtime_best": {"dd_qubits": [2], "evaluations": 16},
    }
    tasks = {
        f"policy_comparison:{name}": {
            "kind": "policy_comparison", "status": "executed", "benchmark": name,
            "outcomes": outcomes,
        }
        for name in ("BV-7", "QFT-6A", "QFT-6B", "QAOA-8A", "QPEA-5")
    }
    tasks["decoy"] = {"kind": "decoy_correlation", "status": "executed", "correlation": 0.5}
    tasks["sweep_summary"] = {"kind": "sweep_summary", "status": "executed"}
    reference = {"seed": 0, "paper-sweep": {"QFT-6A/decoy_correlation": 0.5}}
    for name in ("BV-7", "QFT-6A", "QFT-6B", "QAOA-8A", "QPEA-5"):
        reference["paper-sweep"][f"{name}/adapt"] = outcomes["adapt"]
        reference["paper-sweep"][f"{name}/runtime_best"] = outcomes["runtime_best"]
    good = _run(tmp_path, reference)
    run.check_paper(good, {"tasks": tasks})
    assert (good.attempted, good.failed) == (8, 0)

    reference["paper-sweep"]["QAOA-8A/adapt"] = {"dd_qubits": [2], "evaluations": 8}
    corrupted = _run(tmp_path, reference)
    run.check_paper(corrupted, {"tasks": tasks})
    assert (corrupted.attempted, corrupted.failed) == (8, 1)

    missing = {**tasks, "policy_comparison:QPEA-5": {**tasks["policy_comparison:QPEA-5"]}}
    del missing["policy_comparison:QPEA-5"]["outcomes"]
    incomplete = _run(tmp_path, {"seed": 1})
    run.check_paper(incomplete, {"tasks": missing})
    assert incomplete.failed == 1

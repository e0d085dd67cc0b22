"""One timed unit in a fresh interpreter, so every unit starts cold.

``python3 perfbench/units.py '<json>'``; ``run.Run.unit`` builds the JSON
(workload, seed, trace, set-up-only flag, scratch directory, output and span
paths, and the serve replay's plan size and served store).  The unit sets
itself up, records when it became ready, times the workload's public entry
point, reads back what the program produced for the output checks, and
writes one JSON result.  The parent process supplies the environment
(thread pins, ``PYTHONPATH``).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

PAPER_PANEL = ("BV-7", "QFT-6A", "QFT-6B", "QAOA-8A", "QPEA-5")
PAPER_BUDGET = {
    "shots": 2048,
    "decoy_shots": 1024,
    "trajectories": 60,
    "runtime_best_max_evaluations": 16,
}
PAPER_POLICIES = ("adapt", "all_dd", "no_dd", "runtime_best")
MIRROR_QUBITS = 255
#: The mirror circuit is fixed and the workload seed drives execution only:
#: the circuit seed alone moves routing from 942 to 2094 SWAPs and the cold
#: point from 4.6s to 8.3s, which would swamp any run-to-run comparison.
MIRROR_CIRCUIT_SEED = 7


def paper_specs(seed: int):
    from repro.runtime.spec import SweepSpec

    return [
        SweepSpec(
            name="paper-sweep/fig13-toronto",
            kind="policy_comparison",
            devices=("ibmq_toronto",),
            workloads=PAPER_PANEL,
            seeds=(seed,),
            params=dict(PAPER_BUDGET),
        ),
        SweepSpec(
            name="paper-sweep/fig9-decoy",
            kind="decoy_correlation",
            devices=("ibmq_toronto",),
            workloads=("QFT-6A",),
            seeds=(seed,),
        ),
    ]


def paper_sweep(args, tracer, ready):
    from repro.runtime.orchestrator import SweepOrchestrator
    from repro.store.store import ExperimentStore

    store = ExperimentStore(os.path.join(args["workdir"], "sweep-store"))
    orchestrator = SweepOrchestrator(store, join=True)
    specs = paper_specs(args["seed"])
    ready()
    if args["setup_only"]:
        return {}
    start, cpu = time.perf_counter(), time.process_time()
    report = orchestrator.run(specs, name="paper-sweep")
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if tracer is not None:
        tracer.active = False  # reading the outputs back is not the workload
    tasks = {}
    for task in report.tasks:
        entry = {"kind": task.kind, "status": task.status, "seconds": task.seconds}
        record = store.get(task.key) if task.status == "executed" else None
        if record is not None and task.kind == "policy_comparison":
            entry["benchmark"] = record.meta["benchmark"]
            entry["outcomes"] = {
                name: {
                    "dd_qubits": outcome["dd_qubits"],
                    "evaluations": outcome["num_evaluations"],
                }
                for name, outcome in record.meta["outcomes"].items()
            }
        elif record is not None and task.kind == "decoy_correlation":
            entry["correlation"] = record.meta["correlation"]
        tasks[task.task_id] = entry
    return {
        "wall": wall,
        "cpu": cpu,
        "tasks": tasks,
        "journal_writes": report.journal_writes,
        "task_seconds": sum(t.seconds for t in report.tasks),
    }


def mirror_255(args, tracer, ready):
    from repro.analysis.scaling import hardware_scaling_point
    from repro.hardware import Backend, topologies
    from repro.hardware.devices import synthetic_device

    backend = Backend(
        synthetic_device(
            MIRROR_QUBITS,
            edges=topologies.line(MIRROR_QUBITS),
            name=f"line_{MIRROR_QUBITS}",
        )
    )
    ready()
    if args["setup_only"]:
        return {}
    seed = args["seed"]
    if tracer is not None:
        tracer.record_replays = True
    start, cpu = time.perf_counter(), time.process_time()
    record = hardware_scaling_point(
        backend,
        benchmark=f"MIRROR:{MIRROR_QUBITS}@{MIRROR_CIRCUIT_SEED}",
        shots=2048,
        trajectories=60,
        seed=seed,
    )
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if tracer is not None:
        # The same engine call again on the now-warm program: the difference
        # to the first run is the memoised noise tables and variant stacks.
        tracer.replay_first_runs()
    return {
        "wall": wall,
        "cpu": cpu,
        "point": {
            "benchmark": record.benchmark,
            "num_swaps": record.num_swaps,
            "gate_count": record.gate_count,
            "engine": record.engine,
            "num_active_qubits": record.num_active_qubits,
            "verified": record.mirror_verified,
        },
    }


def serve_replay(args, tracer, ready):
    """The serve-burst request plan through ``execute_run_requests`` in this
    process, then the served records checked against it."""
    from repro.service.requests import ContextCache, RunRequest, execute_run_requests
    from repro.store.store import ExperimentStore

    from serve import request_plan, warmup_plan

    def requests_of(params_list):
        return [
            RunRequest.from_params(p, request_id=f"r{i}") for i, p in enumerate(params_list)
        ]

    seed = args["seed"]
    plan = request_plan(seed, args["bursts"])
    store = ExperimentStore(os.path.join(args["workdir"], "replay-store"))
    contexts = ContextCache()
    execute_run_requests(requests_of(warmup_plan(seed)), store=store, contexts=contexts)
    bursts = [requests_of([params for _, params, _ in burst]) for burst in plan]
    ready()
    start, cpu = time.perf_counter(), time.process_time()
    for burst in bursts:
        execute_run_requests(burst, store=store, contexts=contexts)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    if tracer is not None:
        tracer.active = False
    if not args["verify"]:
        return {"wall": wall, "cpu": cpu}

    served = ExperimentStore(args["served_store"])
    mismatched = []
    sample = []
    for b, burst in enumerate(bursts):
        for i, request in enumerate(burst):
            key = request.key
            mine, theirs = store.get(key), served.get(key)
            if mine is None or theirs is None or _canonical(mine.meta) != _canonical(theirs.meta):
                mismatched.append([b, i])
            elif b == 0 and i < args["sample"]:
                sample.append((request, theirs.meta))
    # The fixed sample again, one request per call: a packing the daemon
    # never used must still give the same bytes.
    sample_mismatched = []
    for i, (request, meta) in enumerate(sample):
        (outcome,) = execute_run_requests([request], contexts=contexts).values()
        if _canonical(outcome.meta) != _canonical(meta):
            sample_mismatched.append(i)
    digest = hashlib.sha256(
        "\n".join(_canonical(meta) for _, meta in sample).encode("utf-8")
    ).hexdigest()
    return {
        "wall": wall,
        "cpu": cpu,
        "mismatched": mismatched,
        "sample_size": len(sample),
        "sample_mismatched": sample_mismatched,
        "sample_sha256": digest,
    }


def _canonical(meta) -> str:
    return json.dumps(meta, sort_keys=True)


UNITS = {"paper-sweep": paper_sweep, "mirror-255": mirror_255, "serve-replay": serve_replay}


def main() -> int:
    args = json.loads(sys.argv[1])
    tracer = None
    if args["trace"]:
        import spans

        tracer = spans.install(f"{args['workload']}-{args['seed']}")
    result = {}

    def ready() -> None:
        result["ready_at"] = time.time()

    result.update(UNITS[args["workload"]](args, tracer, ready))
    if tracer is not None:
        tracer.active = False
        result["self_times"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["calls"] = dict(tracer.calls)
        tracer.write(args["spans"])
    with open(args["out"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

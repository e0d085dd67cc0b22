"""The repository benchmark: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``, run from the checkout root.

Workloads (see ``README.md`` for why each was chosen):

* ``paper-sweep`` — a cold Figure 13 Toronto policy-comparison sweep fused
  with the Figure 9 decoy correlation, drained by one joining orchestrator;
* ``mirror-255`` — one cold 255-qubit line-device mirror scaling point;
* ``serve-burst`` — a ``repro serve`` daemon driven by closed-loop bursts.

Every timed unit runs in a fresh interpreter started by this script
(``units.py``), the daemon included, with BLAS and OpenMP pinned to one
thread.  The last line of standard output is the JSON result; with
``--trace 1`` it carries the per-layer metrics of a traced run instead of
the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

from stats import burst_throughput, median, nearest_rank, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("paper-sweep", "mirror-255", "serve-burst")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 3
UNIT_TIMEOUT_S = 170.0
#: Cold unit cost on the reference machine, used to size a run to --seconds.
NOMINAL_UNIT_S = {"paper-sweep": 20.0, "mirror-255": 7.5}
#: Per-layer counts that depend on timing: how many requests were queued
#: when the daemon claimed a round, and the orchestrator's journal throttle.
TIMING_DEPENDENT = ("pack.rounds", "pack.batches", "contexts.hits", "journal.writes")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


class Run:
    """State of one benchmark run: arguments, scratch space, verdicts."""

    def __init__(self, args) -> None:
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.write_reference = args.write_reference
        self.reference_path = args.reference
        self.workdir = os.path.join(WORKDIR, f"run-{os.getpid()}-{time.time_ns()}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.notes: dict = {}
        self.reference = self._load_reference()
        self._units = 0

    def _load_reference(self):
        with open(self.reference_path, encoding="utf-8") as handle:
            reference = json.load(handle)
        if self.write_reference:
            return reference
        return reference if reference.get("seed") == self.seed else None

    def check(self, ok: bool, operations: int, problem: str) -> None:
        """Count ``operations`` attempted; all of them failed unless ``ok``."""
        self.attempted += operations
        if not ok:
            self.failed += operations
            self.problems.append(problem)

    def expect(self, section: str, name: str, value) -> bool:
        """Compare with the committed reference (default seed only)."""
        if self.write_reference:
            self.reference.setdefault(section, {})[name] = value
            return True
        if self.reference is None:
            return True
        return self.reference.get(section, {}).get(name) == value

    def unit(self, workload: str, trace: bool = False, setup_only: bool = False, **extra):
        """Run one unit in a fresh interpreter; returns its result dict with
        ``setup`` (spawn to ready) and ``peak_rss_mb`` (from the reaped child)."""
        self._units += 1
        name = f"unit{self._units}"
        unit_dir = os.path.join(self.workdir, name)
        os.makedirs(unit_dir)
        args = {
            "workload": workload,
            "seed": self.seed,
            "trace": int(trace),
            "setup_only": setup_only,
            "workdir": unit_dir,
            "out": os.path.join(unit_dir, "result.json"),
            "spans": os.path.join(WORKDIR, "traces", f"{workload}-seed{self.seed}.jsonl"),
            **extra,
        }
        log_path = os.path.join(unit_dir, "log.txt")
        with open(log_path, "wb") as log:
            spawn_at = time.time()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "units.py"), json.dumps(args)],
                cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        status, peak_rss_mb = reap(proc, UNIT_TIMEOUT_S)
        if status != 0:
            with open(log_path, encoding="utf-8", errors="replace") as log:
                tail = log.read()[-3000:]
            raise BenchmarkError(f"{workload} unit exited with {status}:\n{tail}")
        with open(args["out"], encoding="utf-8") as handle:
            result = json.load(handle)
        result["setup"] = result["ready_at"] - spawn_at
        result["peak_rss_mb"] = peak_rss_mb
        return result


def reap(proc: subprocess.Popen, timeout_s: float):
    """Wait for a child with a deadline; returns (exit status, peak RSS MB).
    A child still running when this gives up is killed and reaped."""
    deadline = time.monotonic() + timeout_s
    try:
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage.ru_maxrss / 1024.0
            time.sleep(0.01)
        raise BenchmarkError(f"unit {proc.args[-1][:80]} exceeded {timeout_s}s")
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def in_process(run: Run, workload: str, check, traced_extra, unit_notes) -> dict:
    """An in-process workload: one request is one timed unit, each unit in
    a fresh interpreter.

    Untraced, the run sizes its unit count from ``--seconds`` and takes
    set-up samples from the units, topped up with set-up-only interpreters;
    latency and throughput follow from the unit walls.  Traced, it runs one
    untraced and one traced unit and reports the traced unit's layers.
    """
    if run.trace:
        plain = run.unit(workload)
        traced = run.unit(workload, trace=True)
        for unit in (plain, traced):
            check(run, unit)
        return layer_metrics(traced, plain, traced_extra(traced))
    count = max(1, round(run.seconds / NOMINAL_UNIT_S[workload]))
    units = [run.unit(workload) for _ in range(count)]
    for unit in units:
        check(run, unit)
    setups = [u["setup"] for u in units]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.unit(workload, setup_only=True)["setup"])
    run.notes["units"] = [
        {"wall_s": u["wall"], "cpu_s": u["cpu"], "setup_s": u["setup"], **unit_notes(u)}
        for u in units
    ]
    walls = [u["wall"] for u in units]
    tail, _ = tail_percentile(walls)
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "throughput_rps": len(walls) / sum(walls),
        "latency_p50_s": median(walls),
        "latency_p99_s": max(walls) if tail is None else nearest_rank(walls, tail),
        "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
    }


def check_paper(run: Run, unit: dict) -> None:
    from units import PAPER_PANEL, PAPER_POLICIES

    tasks = unit["tasks"]
    run.check(len(tasks) == len(PAPER_PANEL) + 2, 1, f"sweep expanded to {len(tasks)} tasks")
    for task_id, task in sorted(tasks.items()):
        ok = task["status"] == "executed"
        if ok and task["kind"] == "policy_comparison":
            outcomes = task.get("outcomes", {})
            ok = sorted(outcomes) == sorted(PAPER_POLICIES) and all(
                run.expect("paper-sweep", f"{task['benchmark']}/{policy}", outcomes[policy])
                for policy in ("adapt", "runtime_best")
            )
        elif ok and task["kind"] == "decoy_correlation":
            value = task.get("correlation")
            ok = isinstance(value, float) and math.isfinite(value) and run.expect(
                "paper-sweep", "QFT-6A/decoy_correlation", value
            )
        run.check(ok, 1, f"{task_id}: {task}")


def evaluations(unit: dict, policy: str) -> int:
    return sum(
        t["outcomes"][policy]["evaluations"]
        for t in unit["tasks"].values()
        if policy in t.get("outcomes", {})
    )


def paper_sweep(run: Run) -> dict:
    return in_process(
        run,
        "paper-sweep",
        check_paper,
        traced_extra=lambda u: {
            "orchestrator.overhead_s": u["wall"] - u["task_seconds"],
            "journal.writes": u["journal_writes"],
            "adapt.evaluations": evaluations(u, "adapt"),
            "runtime_best.evaluations": evaluations(u, "runtime_best"),
        },
        unit_notes=lambda u: {
            "orchestrator_overhead_s": u["wall"] - u["task_seconds"],
            "task_s": {t: task["seconds"] for t, task in sorted(u["tasks"].items())},
        },
    )


def check_mirror(run: Run, unit: dict) -> None:
    from units import MIRROR_CIRCUIT_SEED, MIRROR_QUBITS

    point = unit["point"]
    ok = (
        point["verified"] is True
        and point["engine"] == "stabilizer_frames"
        and point["num_active_qubits"] == MIRROR_QUBITS
        and point["benchmark"] == f"MIRROR:{MIRROR_QUBITS}@{MIRROR_CIRCUIT_SEED}"
        and run.expect("mirror-255", "num_swaps", point["num_swaps"])
        and run.expect("mirror-255", "gate_count", point["gate_count"])
    )
    run.check(ok, 1, f"mirror point: {point}")


def mirror_255(run: Run) -> dict:
    return in_process(
        run, "mirror-255", check_mirror, traced_extra=lambda u: {}, unit_notes=lambda u: {}
    )


# ---------------------------------------------------------------------------
# serve-burst
# ---------------------------------------------------------------------------


def start_daemon(run: Run, name: str):
    """A warmed daemon and its set-up time (spawn to last warm-up settled)."""
    from serve import Daemon

    daemon = Daemon(ROOT, run.workdir, name, run.env)
    start = time.perf_counter()
    try:
        daemon.start()
        daemon.warm(run.seed)
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start


def check_daemon_exit(run: Run, daemon) -> None:
    run.check(daemon.exit_status == 0, 1, f"daemon exit status {daemon.exit_status}")


def serve_burst(run: Run) -> dict:
    from repro.service.requests import RunRequest

    from serve import burst_count, drive, request_plan

    bursts = burst_count(run.seconds)
    setups = []
    if not run.trace:
        for i in range(SETUP_SAMPLES - 1):
            daemon, setup = start_daemon(run, f"setup{i}")
            daemon.stop()
            check_daemon_exit(run, daemon)
            setups.append(setup)
    plan = request_plan(run.seed, bursts)
    daemon, setup = start_daemon(run, "daemon")
    setups.append(setup)
    try:
        served = drive(daemon.client, plan)
        stats = daemon.client.stats()
    finally:
        daemon.stop()
    check_daemon_exit(run, daemon)

    latencies, queue_waits, execs, rtts, spans = [], [], [], [], []
    for burst in served:
        pairs = []
        for entry in burst:
            job = entry["job"]
            ok = entry["refused"] is None and job is not None and job["status"] == "done"
            if ok:
                expected = "cached" if entry["resubmitted"] else "executed"
                key = RunRequest.from_params(entry["params"]).key
                result = job["result"]
                ok = result.get("status") == expected and result.get("key") == key
                latencies.append(job["finished_at"] - entry["submit_at"])
                queue_waits.append(job["started_at"] - job["submitted_at"])
                execs.append(job["finished_at"] - job["started_at"])
                rtts.append(entry["submit_rtt"])
                pairs.append((entry["submit_at"], job["finished_at"]))
            run.check(ok, 1, f"request {entry['params']} -> {entry['refused'] or job}")
        spans.append(pairs)

    replay_args = {"bursts": bursts, "sample": 24, "served_store": daemon.store, "verify": True}
    replay = run.unit("serve-replay", **replay_args)
    mismatched = len(replay["mismatched"]) + len(replay["sample_mismatched"])
    run.check(mismatched == 0, mismatched, f"served records differ: {replay['mismatched']}"
              f" / sample {replay['sample_mismatched']}")
    sample_ok = replay["sample_size"] == 24 and run.expect(
        "serve-burst", "sample_sha256", replay["sample_sha256"]
    )
    run.check(sample_ok, replay["sample_size"] or 1, "served sample differs from the reference")
    tail, samples = tail_percentile(latencies)
    run.notes.update({
        "latency_samples": samples,
        "latency_tail_percentile": tail,
        "replay_cpu_s": replay["cpu"],
        "burst_spans_s": [max(e for _, e in b) - min(s for s, _ in b) for b in spans if b],
    })

    if run.trace:
        traced = run.unit("serve-replay", trace=True, **{**replay_args, "verify": False})
        packing = stats["packing"]
        store = stats["store"]
        return layer_metrics(traced, replay, {
            "service.queue_wait_p50_s": median(queue_waits),
            "service.queue_wait_p99_s": nearest_rank(queue_waits, tail),
            "service.exec_p50_s": median(execs),
            "service.submit_rtt_p50_s": median(rtts),
            "service.requests": samples,
            "pack.rounds": packing.get("rounds", 0),
            "pack.batches": packing.get("batches", 0),
            "pack.chunks": packing.get("chunks", 0),
            "contexts.builds": stats["contexts"]["builds"],
            "contexts.hits": stats["contexts"]["hits"],
            "store.writes": store["writes"],
            "store.hits": sum(store[k] for k in ("memory_hits", "disk_hits",
                                                 "federated_hits", "probe_hits")),
            "store.misses": store["misses"] + store["probe_misses"],
        })
    return {
        "setup_s": median(setups),
        "wall_s": replay["wall"],
        "throughput_rps": burst_throughput(spans),
        "latency_p50_s": median(latencies),
        "latency_p99_s": nearest_rank(latencies, tail),
        "peak_rss_mb": daemon.peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

#: Per-layer time metric -> the span names whose self times it sums.
LAYER_SPANS = {
    "hardware.device_build_s": ("hardware.device_build",),
    "workloads.build_s": ("workloads.build",),
    "transpiler.decompose_s": ("transpiler.decompose",),
    "transpiler.optimize_s": ("transpiler.optimize",),
    "transpiler.layout_s": ("transpiler.layout",),
    "transpiler.route_s": ("transpiler.route",),
    "gst.schedule_s": ("gst.schedule",),
    "program.compile_s": ("program.compile",),
    "engine.stabilizer_frames.first_run_s": ("engine.stabilizer_frames.first_run",),
    "engine.stabilizer_frames.repeat_run_s": ("engine.stabilizer_frames.repeat_run",),
    "engine.density_matrix.run_s": (
        "engine.density_matrix.first_run", "engine.density_matrix.repeat_run"),
    "engine.stabilizer.run_s": ("engine.stabilizer.first_run", "engine.stabilizer.repeat_run"),
    "ideal.compute_s": ("ideal.compute",),
    "adapt.select_s": ("adapt.select",),
    "adapt.decoy_s": ("adapt.decoy",),
    "runtime_best.decide_s": ("runtime_best.decide",),
    "store.put_s": ("store.put",),
    "store.get_s": ("store.get",),
    "store.contains_s": ("store.contains",),
    "lease.claim_s": ("lease.claim",),
}
#: Counts read at the same wrapped boundaries.
LAYER_COUNTS = (
    "transpiler.swaps", "transpiler.gates", "program.compiles", "program.hits",
    "program.windows", "engine.jobs", "store.writes", "store.hits", "store.misses",
    "lease.claims",
)


#: Calls of a timed layer that reports no count of its own.
LAYER_CALLS = {
    "hardware.device_builds": "hardware.device_build",
    "workloads.builds": "workloads.build",
    "transpiler.transpiles": "transpiler.transpile",
    "gst.schedules": "gst.schedule",
    "ideal.computes": "ideal.compute",
}


def layer_metrics(traced: dict, plain: dict, extra: dict) -> dict:
    metrics = {
        name: sum(traced["self_times"].get(span, 0.0) for span in spans)
        for name, spans in LAYER_SPANS.items()
    }
    metrics.update({name: traced["counts"].get(name, 0) for name in LAYER_COUNTS})
    metrics.update({name: traced["calls"].get(span, 0) for name, span in LAYER_CALLS.items()})
    metrics["trace.overhead_s"] = traced["wall"] - plain["wall"]
    metrics.update(extra)
    return {name: metrics.get(name, 0) for name in per_layer_units()}


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}


# ---------------------------------------------------------------------------
# environment record and entry point
# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # noqa: BLE001 - older numpy: no dict mode
        blas = "unknown"
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
    }


RUNNERS = {"paper-sweep": paper_sweep, "mirror-255": mirror_255, "serve-burst": serve_burst}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=REFERENCE,
                        help="output reference for the default seed (default: %(default)s)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's outputs into --reference instead of checking")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # Before anything loads numpy, here or in any child process: one BLAS
    # and OpenMP thread, so self times sum to wall time and the daemon does
    # not compete with its own client for the cores.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # A terminated run still unwinds its finally blocks: children are
    # killed and reaped, the daemon is stopped, scratch space is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run = Run(args)
    os.makedirs(os.path.join(WORKDIR, "traces"), exist_ok=True)
    os.makedirs(run.workdir)
    try:
        values = RUNNERS[run.workload](run)
    except RuntimeError as exc:  # BenchmarkError, or a daemon that would not start
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    if run.write_reference:
        run.reference["seed"] = run.seed
        with open(run.reference_path, "w", encoding="utf-8") as handle:
            json.dump(run.reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
    units = per_layer_units() if run.trace else END_TO_END_UNITS
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": int(run.trace),
        "environment": environment(),
        "notes": run.notes,
        "problems": run.problems,
        "timing_dependent_counts": list(TIMING_DEPENDENT) if run.trace else [],
    }
    os.makedirs(os.path.join(WORKDIR, "records"), exist_ok=True)
    record_path = os.path.join(
        WORKDIR, "records", f"{run.workload}-seed{run.seed}-trace{int(run.trace)}.json"
    )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump({**record, "result": result}, handle, indent=1, sort_keys=True)
    for problem in run.problems[:20]:
        print(f"wrong output: {problem}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(f"failed_frac: {run.failed / max(1, run.attempted)} (fraction,"
          f" {run.failed}/{run.attempted} operations)")
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    if run.notes:
        print("notes: " + json.dumps(run.notes, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

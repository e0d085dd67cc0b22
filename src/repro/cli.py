"""``python -m repro`` — the experiment-store / sweep command line.

Subcommands:

* ``run``    — execute one task kind and store its record;
* ``sweep``  — expand a declarative sweep spec (or the built-in ``--smoke``
  sweep) into a task DAG, skip stored tasks, run + checkpoint the rest;
  ``--join`` drains cooperatively with other ``--join`` processes through
  crash-safe task leases (work stealing on a shared write root);
* ``ls``     — list store contents; ``--stats`` adds the store's cache
  counters (hits/misses aggregated across sessions);
* ``gc``     — reclaim stale-schema / corrupt / orphaned / stale-lease
  artifacts (write root only);
* ``report`` — show sweep journals and per-task status; ``--partial``
  aggregates whatever leaf records already exist mid-sweep;
* ``serve``  — host the persistent multi-tenant sweep service on a Unix
  socket: an async job queue with per-tenant quotas/priorities, bounded-queue
  backpressure and a shot/experiment packing scheduler (see
  :mod:`repro.service`);
* ``submit`` / ``jobs`` / ``cancel`` — client side of ``serve``: enqueue a
  run or sweep, list/watch jobs, cancel one;
* ``lint``   — the determinism & concurrency static-analysis pass
  (:mod:`repro.lint`): no ``hash()``/unsorted accumulation/wall-clock in
  key paths, ``@guarded_by`` lock-guard checking; non-zero exit on
  findings, so it gates CI.

The store is ``--store``, else ``$REPRO_STORE``, else ``./.repro-store``, and
may be a *federation*: ``--store local:shared`` writes to ``local`` and
reads through ``local`` then ``shared`` (roots joined by ``os.pathsep``).
Every sweep is resumable by construction: re-running the same spec skips
every task whose key is already stored, so interrupting a sweep costs only
the tasks that were in flight.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence

from .store.store import ExperimentStore, default_store_root

__all__ = ["main", "build_parser"]

#: Exit code for backpressure rejections (queue full / quota exceeded):
#: sysexits' EX_TEMPFAIL — "try again later", which is exactly the contract.
EX_TEMPFAIL = 75


def _positive_int(raw: str) -> int:
    """Argparse type for flags that only make sense as positive integers."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(raw: str) -> float:
    """Argparse type for flags that only make sense as positive numbers."""
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {raw!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ADAPT reproduction: persistent experiment store + sweep runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            default=None,
            help=(
                "store root, or an ordered 'write:read[:read...]' federation"
                f" (default: $REPRO_STORE or {default_store_root()!r})"
            ),
        )

    run = sub.add_parser("run", help="execute one task and store its record")
    add_store(run)
    run.add_argument("--kind", required=True, help="registered task kind")
    run.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="task parameter (VALUE parsed as JSON, else kept as string)",
    )
    run.add_argument("--json", default=None, help="task parameters as one JSON object")
    run.add_argument(
        "--recompute", action="store_true", help="execute even if the key is stored"
    )

    sweep = sub.add_parser("sweep", help="run a declarative sweep (resumable)")
    add_store(sweep)
    sweep.add_argument("--spec", default=None, help="sweep spec JSON file")
    sweep.add_argument(
        "--smoke", action="store_true", help="run the built-in CI smoke sweep"
    )
    sweep.add_argument("--name", default=None, help="sweep name (journal label)")
    sweep.add_argument(
        "--workers", type=_positive_int, default=1, help="worker processes"
    )
    sweep.add_argument(
        "--max-tasks",
        type=_positive_int,
        default=None,
        help="execute at most N tasks, then stop",
    )
    sweep.add_argument(
        "--recompute", action="store_true", help="re-execute stored tasks"
    )
    sweep.add_argument(
        "--join",
        action="store_true",
        help=(
            "drain cooperatively: claim tasks via crash-safe leases so any"
            " number of --join processes sharing the write root work one"
            " sweep together"
        ),
    )
    sweep.add_argument(
        "--lease-ttl",
        type=_positive_float,
        default=60.0,
        metavar="SECONDS",
        help="steal a dead worker's leases after this heartbeat silence",
    )
    sweep.add_argument(
        "--lease-pack",
        type=_positive_int,
        default=None,
        metavar="N",
        help="tasks claimed per lease batch (default: auto-sized)",
    )
    sweep.add_argument(
        "--expect-all-cached",
        action="store_true",
        help="fail unless every task is a cache hit (CI warm-store gate)",
    )
    sweep.add_argument("--quiet", action="store_true", help="suppress per-task lines")

    ls = sub.add_parser("ls", help="list stored records")
    add_store(ls)
    ls.add_argument("--stats", action="store_true", help="show aggregated cache stats")
    ls.add_argument("--keys", action="store_true", help="print full keys")
    ls.add_argument("--limit", type=int, default=40, help="max records to list")
    ls.add_argument(
        "--benchmarks",
        action="store_true",
        help="list the workload suite (fixed names + parametric families)",
    )

    gc = sub.add_parser("gc", help="reclaim stale/corrupt/orphaned artifacts")
    add_store(gc)
    gc.add_argument(
        "--older-than-days", type=float, default=None, help="also expire old records"
    )
    gc.add_argument("--dry-run", action="store_true", help="report only, delete nothing")

    report = sub.add_parser("report", help="show sweep journals")
    add_store(report)
    report.add_argument("--sweep", default=None, help="journal name filter (substring)")
    report.add_argument(
        "--partial",
        action="store_true",
        help=(
            "mid-sweep mode: aggregate whatever leaf records already exist"
            " and mark the summary partial"
        ),
    )

    def add_socket(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--socket",
            required=True,
            metavar="PATH",
            help="Unix socket path of the sweep service",
        )

    serve = sub.add_parser(
        "serve", help="host the persistent multi-tenant sweep service"
    )
    add_store(serve)
    add_socket(serve)
    serve.add_argument(
        "--queue-depth",
        type=_positive_int,
        default=64,
        help="bound on queued jobs (submissions beyond it are rejected)",
    )
    serve.add_argument(
        "--tenant-quota",
        type=_positive_int,
        default=16,
        help="per-tenant bound on queued+running jobs",
    )
    serve.add_argument(
        "--max-experiments",
        type=_positive_int,
        default=75,
        help="chunks packed per batch (result-invariant batch shaping)",
    )
    serve.add_argument(
        "--max-shots",
        type=_positive_int,
        default=8192,
        help=(
            "default per-request shot chunk bound (result-determining:"
            " part of each request's store key)"
        ),
    )
    serve.add_argument(
        "--sweep-workers",
        type=_positive_int,
        default=1,
        help="worker processes for sweep jobs",
    )
    serve.add_argument("--quiet", action="store_true", help="suppress per-job lines")

    submit = sub.add_parser("submit", help="submit a run or sweep to the service")
    add_socket(submit)
    submit.add_argument(
        "--kind", default="benchmark_run", help="task kind for a run submission"
    )
    submit.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="run parameter (VALUE parsed as JSON, else kept as string)",
    )
    submit.add_argument("--json", default=None, help="run parameters as one JSON object")
    submit.add_argument(
        "--spec", default=None, help="sweep spec JSON file (submits a sweep job)"
    )
    submit.add_argument("--name", default=None, help="sweep name (journal label)")
    submit.add_argument("--tenant", default="default", help="tenant identity")
    submit.add_argument(
        "--priority", type=int, default=0, help="dispatch priority (higher first)"
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until the job settles"
    )
    submit.add_argument(
        "--timeout",
        type=_positive_float,
        default=600.0,
        metavar="SECONDS",
        help="--wait limit",
    )

    jobs = sub.add_parser("jobs", help="list the service's jobs")
    add_socket(jobs)
    jobs.add_argument("--tenant", default=None, help="only this tenant's jobs")
    jobs.add_argument(
        "--stats", action="store_true", help="show queue/packing/cache counters"
    )

    cancel = sub.add_parser("cancel", help="cancel a service job")
    add_socket(cancel)
    cancel.add_argument("job_id", help="job id returned by submit")

    lint = sub.add_parser(
        "lint", help="run the determinism & concurrency static-analysis pass"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro source tree)",
    )
    lint.add_argument("--json", action="store_true", help="machine-readable output")
    lint.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="CODE",
        help="only run these rule codes (repeatable, e.g. --select REP101)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )

    return parser


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _parse_params(pairs: Sequence[str], blob: Optional[str]) -> Dict[str, object]:
    params: Dict[str, object] = {}
    if blob:
        params.update(json.loads(blob))
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects KEY=VALUE, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _open_store(args) -> ExperimentStore:
    return ExperimentStore.from_spec(args.store)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    from .runtime.tasks import (
        available_task_kinds,
        required_params,
        resolve_task_key,
        run_task,
    )

    store = _open_store(args)
    params = _parse_params(args.param, args.json)
    if args.kind not in available_task_kinds():
        raise SystemExit(
            f"unknown task kind {args.kind!r}; registered: {available_task_kinds()}"
        )
    missing = [name for name in required_params(args.kind) if name not in params]
    if missing:
        raise SystemExit(
            f"task kind {args.kind!r} needs --param "
            + " --param ".join(f"{name}=..." for name in missing)
        )
    key = resolve_task_key(args.kind, params)
    if not args.recompute and store.contains(key):
        print(f"cached    {args.kind}  {key}")
        return 0
    start = time.perf_counter()
    meta, arrays = run_task(args.kind, params, store)
    store.put(key, meta, arrays)
    store.flush_session_stats()
    print(f"executed  {args.kind}  {key}  ({time.perf_counter() - start:.2f}s)")
    return 0


def _cmd_sweep(args) -> int:
    from .runtime.orchestrator import SweepOrchestrator
    from .runtime.spec import load_spec, smoke_spec

    if bool(args.spec) == bool(args.smoke):
        raise SystemExit("sweep needs exactly one of --spec or --smoke")
    specs = smoke_spec() if args.smoke else load_spec(args.spec)
    store = _open_store(args)
    orchestrator = SweepOrchestrator(
        store,
        n_workers=args.workers,
        progress=None if args.quiet else print,
        join=args.join,
        lease_ttl_s=args.lease_ttl,
        lease_pack=args.lease_pack,
    )
    name = args.name or ("smoke" if args.smoke else specs[0].name)
    report = orchestrator.run(
        specs, name=name, recompute=args.recompute, max_executions=args.max_tasks
    )
    total = len(report.tasks)
    hits = len(report.cached)
    print(report.summary_line())
    print(f"cache hits: {hits}/{total} ({100.0 * hits / max(1, total):.0f}%)")
    if report.failed:
        for task in report.failed:
            print(f"FAILED {task.task_id}: {task.error}", file=sys.stderr)
        for task in report.blocked:
            print(f"BLOCKED {task.task_id} (on {task.blocked_on})", file=sys.stderr)
        return 1
    if args.expect_all_cached and (report.executed or report.pending or report.blocked):
        print(
            "expected a fully warm store, but"
            f" {len(report.executed)} task(s) executed,"
            f" {len(report.pending)} pending and"
            f" {len(report.blocked)} blocked",
            file=sys.stderr,
        )
        return 1
    if report.interrupted:
        print("interrupted — re-run the same sweep to resume", file=sys.stderr)
        return 130
    return 0


def _cmd_ls(args) -> int:
    if args.benchmarks:
        # A suite listing, not a store listing: usable with no store at all.
        from .workloads.suite import BENCHMARKS, benchmark_families

        print("fixed benchmarks")
        for name in sorted(BENCHMARKS):
            spec = BENCHMARKS[name]
            table4 = "table4" if spec.in_table4 else "aux"
            print(f"  {name:10s} {spec.num_qubits:3d}q  {table4:6s}  {spec.description}")
        print()
        print("parametric families (resolved on demand, deterministic per name)")
        for family, grammar in sorted(benchmark_families().items()):
            print(f"  {family:10s} {grammar}")
        return 0
    store = _open_store(args)
    rows = store.ls()
    by_kind: Dict[str, int] = {}
    for row in rows:
        by_kind[str(row["kind"])] = by_kind.get(str(row["kind"]), 0) + 1
    print(f"store: {store.root}  ({len(rows)} records, {store.disk_bytes()} bytes)")
    for kind, count in sorted(by_kind.items()):
        print(f"  {kind:32s} {count}")
    if rows and args.limit:
        print()
        shown = rows[: args.limit]
        for row in shown:
            key = row["key"] if args.keys else str(row["key"])[:16]
            print(f"  {key}  {row['kind']}  {row.get('bytes', 0)}B")
        if len(rows) > len(shown):
            print(f"  ... {len(rows) - len(shown)} more (raise --limit)")
    if args.stats:
        print()
        print("aggregated cache stats")
        cumulative = store.cumulative_stats()
        session = store.stats
        for counter in sorted(set(cumulative) | set(session)):
            total = int(cumulative.get(counter, 0)) + int(session.get(counter, 0))
            print(f"  store.{counter:20s} {total}")
        lookups = sum(
            int(cumulative.get(c, 0)) + int(session.get(c, 0))
            for c in ("memory_hits", "disk_hits", "misses")
        )
        hits = lookups - int(cumulative.get("misses", 0)) - int(session.get("misses", 0))
        if lookups:
            print(f"  store.hit_rate            {100.0 * hits / lookups:.1f}%")
    return 0


def _cmd_gc(args) -> int:
    store = _open_store(args)
    older = None if args.older_than_days is None else args.older_than_days * 86400.0
    removed = store.gc(older_than_s=older, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    total = 0
    for reason, paths in sorted(removed.items()):
        if paths:
            print(f"{verb} {len(paths)} ({reason})")
            total += len(paths)
    print(f"{verb} {total} file(s); {store.disk_bytes()} bytes remain")
    return 0


_STATUS_RANK = {"executed": 4, "cached": 3, "failed": 2, "blocked": 1, "pending": 0}


def _merge_journals(journals: List[dict]) -> List[dict]:
    """Fold per-worker journals of one sweep into a single view.

    ``--join`` workers each checkpoint their own journal under the shared
    ``sweep_key``; a task executed by worker A shows as ``cached`` in worker
    B's journal, so the merged status of each task is simply the
    most-settled one any worker recorded.
    """
    merged: Dict[str, dict] = {}
    for journal in journals:
        sweep_key = str(journal.get("sweep_key", ""))
        entry = merged.setdefault(
            sweep_key,
            {
                "name": journal.get("name"),
                "sweep_key": sweep_key,
                "workers": [],
                "tasks": {},
            },
        )
        worker = journal.get("worker")
        if worker and worker not in entry["workers"]:
            entry["workers"].append(str(worker))
        for task_id, task in journal.get("tasks", {}).items():
            best = entry["tasks"].get(task_id)
            if best is None or _STATUS_RANK.get(
                str(task.get("status")), 0
            ) > _STATUS_RANK.get(str(best.get("status")), 0):
                entry["tasks"][task_id] = dict(task)
    return sorted(merged.values(), key=lambda e: str(e.get("name")))


def _cmd_report(args) -> int:
    store = _open_store(args)
    journals: List[dict] = []
    if store.sweeps_dir.exists():
        for path in sorted(store.sweeps_dir.glob("*.json")):
            try:
                with open(path, encoding="utf-8") as handle:
                    journals.append(json.load(handle))
            except (json.JSONDecodeError, OSError):
                continue
    available = sorted({str(j.get("name", "")) for j in journals})
    if args.sweep:
        journals = [j for j in journals if args.sweep in str(j.get("name", ""))]
    if not journals:
        if args.sweep:
            listing = ", ".join(available) if available else "(none)"
            print(
                f"no sweep journal matches {args.sweep!r};"
                f" available journals: {listing}",
                file=sys.stderr,
            )
        else:
            print("no sweep journals found", file=sys.stderr)
        return 1
    for journal in _merge_journals(journals):
        tasks = journal.get("tasks", {})
        by_status: Dict[str, int] = {}
        for entry in tasks.values():
            by_status[entry["status"]] = by_status.get(entry["status"], 0) + 1
        counts = ", ".join(f"{n} {s}" for s, n in sorted(by_status.items()))
        header = f"{journal.get('name')}  [{journal.get('sweep_key', '')[:12]}]  {counts}"
        if len(journal.get("workers", [])) > 1:
            header += f"  ({len(journal['workers'])} workers)"
        print(header)
        for task_id, entry in sorted(tasks.items()):
            line = f"  {entry['status']:>8}  {task_id}"
            if entry.get("seconds"):
                line += f"  ({entry['seconds']:.2f}s)"
            if entry.get("blocked_on"):
                line += f"  (blocked on {entry['blocked_on']})"
            if entry.get("error"):
                line += f"  !! {entry['error']}"
            print(line)
            if entry["status"] in ("executed", "cached") and entry["kind"] == "sweep_summary":
                record = store.get(entry["key"])
                if record is not None:
                    for leaf_id, leaf in sorted(record.meta.get("tasks", {}).items()):
                        headline = leaf.get("headline") or {}
                        text = ", ".join(f"{k}={v}" for k, v in sorted(headline.items()))
                        print(f"            {leaf_id}: {text}")
        if args.partial:
            from .runtime.orchestrator import partial_summary

            summary = partial_summary(store, tasks)
            coverage = summary["coverage"]
            marker = "partial" if summary["partial"] else "complete"
            print(
                f"  partial summary: {coverage['stored']}/{coverage['total']}"
                f" leaves stored ({marker})"
            )
            for leaf_id, leaf in sorted(summary["tasks"].items()):
                headline = leaf.get("headline") or {}
                text = ", ".join(f"{k}={v}" for k, v in sorted(headline.items()))
                print(f"            {leaf_id}: {text}")
    return 0


def _cmd_serve(args) -> int:
    from .service.server import SweepService

    service = SweepService(
        args.store,
        socket_path=args.socket,
        queue_depth=args.queue_depth,
        tenant_quota=args.tenant_quota,
        max_experiments=args.max_experiments,
        max_shots=args.max_shots,
        sweep_workers=args.sweep_workers,
        progress=(lambda line: None) if args.quiet else print,
    )
    return service.serve_forever()


def _job_line(job: dict) -> str:
    line = (
        f"{job['job_id']}  {str(job['status']):>9}  {job['type']:<5}"
        f"  tenant={job['tenant']}  prio={job['priority']}"
    )
    progress = job.get("progress") or {}
    if "total" in progress:
        line += f"  [{progress.get('settled', 0)}/{progress['total']}]"
    return line


def _cmd_submit(args) -> int:
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.socket)
    try:
        if args.spec:
            from .runtime.spec import load_spec

            specs = load_spec(args.spec)
            job_id = client.submit_sweep(
                [spec.to_dict() for spec in specs],
                name=args.name or specs[0].name,
                tenant=args.tenant,
                priority=args.priority,
            )
        else:
            params = _parse_params(args.param, args.json)
            job_id = client.submit_run(
                params, kind=args.kind, tenant=args.tenant, priority=args.priority
            )
    except ServiceError as exc:
        print(f"rejected ({exc.code}): {exc}", file=sys.stderr)
        if exc.retry_after_s is not None:
            print(f"retry after {float(exc.retry_after_s):.1f}s", file=sys.stderr)
        return EX_TEMPFAIL if exc.code in ("queue_full", "quota_exceeded") else 1
    print(f"submitted {job_id}")
    if not args.wait:
        return 0
    job = client.wait(job_id, timeout_s=args.timeout)
    print(_job_line(job))
    result = job.get("result") or {}
    if job.get("status") == "done":
        if "key" in result:
            print(f"  {result.get('status', 'done'):>9}  {result['key']}")
        if "summary" in result:
            print(f"  {result['summary']}")
        return 0
    if result.get("error"):
        print(f"  !! {result['error']}", file=sys.stderr)
    return 1


def _cmd_jobs(args) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.socket)
    jobs = client.jobs(tenant=args.tenant)
    for job in jobs:
        print(_job_line(job))
    if not jobs:
        print("no jobs")
    if args.stats:
        stats = client.stats()
        print()
        print(f"uptime: {float(stats['uptime_s']):.1f}s")
        for section in ("queue", "packing", "contexts", "store"):
            payload = stats.get(section) or {}
            if payload:
                text = ", ".join(f"{k}={v}" for k, v in sorted(payload.items()))
                print(f"  {section:9s} {text}")
    return 0


def _cmd_lint(args) -> int:
    from pathlib import Path

    from .lint import all_rules, render_human, render_json, run_lint

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:28s} {rule.description}")
        print(
            "suppress per line with '# repro: allow[CODE] -- reason'"
            " (REP002/REP003 police unjustified/stale allows)"
        )
        return 0
    paths = list(args.paths)
    if not paths:
        # Default to the checkout's source tree when run from the repo root,
        # else lint the installed package itself.
        checkout = Path("src/repro")
        paths = [str(checkout if checkout.is_dir() else Path(__file__).parent)]
    findings = run_lint(paths, select=args.select or None)
    print(render_json(findings) if args.json else render_human(findings))
    return 1 if findings else 0


def _cmd_cancel(args) -> int:
    from .service.client import ServiceClient

    client = ServiceClient(args.socket)
    job = client.cancel(args.job_id)
    print(_job_line(job))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "ls": _cmd_ls,
    "gc": _cmd_gc,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "cancel": _cmd_cancel,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from .service.client import ServiceError, ServiceUnavailable

    try:
        return _COMMANDS[args.command](args)
    except ServiceUnavailable as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ServiceError as exc:
        print(f"service error ({exc.code}): {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())

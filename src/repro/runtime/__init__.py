"""Resumable sweep orchestration over the experiment store.

The paper's artifacts are sweeps: devices x calibration cycles x DD policies
x workloads x seeds.  This package turns a *declarative* description of such
a sweep (:class:`~repro.runtime.spec.SweepSpec`) into a task DAG
(:class:`~repro.runtime.spec.TaskSpec` leaves plus an aggregating summary
node), resolves every task to its content-addressed store key, skips the ones
the store already holds, feeds the rest *continuously* (settled in
completion order, no frontier barriers) to a ``fork`` worker pool
(:func:`~repro.runtime.orchestrator.create_worker_pool`) — pooled workers
checkpoint their own results — and, under ``--join``, lets any number of
processes or machines drain one sweep cooperatively through crash-safe task
leases (:mod:`repro.runtime.leases`): an interrupted or killed worker costs
only its in-flight tasks, which are re-leased after heartbeat expiry.

Entry points:

* :class:`~repro.runtime.orchestrator.SweepOrchestrator` — the programmatic
  API;
* ``python -m repro sweep [--join]`` — the CLI front-end (:mod:`repro.cli`).
"""

from .leases import LeaseManager
from .orchestrator import SweepOrchestrator, SweepReport, TaskResult, partial_summary
from .spec import SweepSpec, TaskSpec, expand_sweep, smoke_spec
from .tasks import available_task_kinds, resolve_task_key, run_task

__all__ = [
    "LeaseManager",
    "SweepOrchestrator",
    "SweepReport",
    "SweepSpec",
    "TaskResult",
    "TaskSpec",
    "available_task_kinds",
    "expand_sweep",
    "partial_summary",
    "resolve_task_key",
    "run_task",
    "smoke_spec",
]

"""Declarative sweep specifications and their expansion into task DAGs.

A :class:`SweepSpec` names a task *kind* (one of the registered experiment
drivers — see :mod:`repro.runtime.tasks`) and the axes to sweep: devices,
calibration cycles, workloads and seeds.  :func:`expand_sweep` takes the
cartesian product over the axes the kind actually uses and emits one
:class:`TaskSpec` per point, plus a ``sweep_summary`` node that depends on
every leaf — a two-level DAG the orchestrator schedules in dependency order.

Specs serialise to/from JSON (``repro sweep --spec file.json``); a spec file
holds either a single sweep object or ``{"name": ..., "sweeps": [...]}`` to
fuse several sweeps into one DAG under a shared summary.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

__all__ = ["TaskSpec", "SweepSpec", "expand_sweep", "smoke_spec", "load_spec"]


@dataclass
class TaskSpec:
    """One schedulable unit: a task kind, its parameters, its dependencies.

    ``task_id`` is the human-readable name inside one sweep (shown by
    ``repro report``); ``key`` is the content-addressed store key, resolved
    at expansion time by :func:`repro.runtime.tasks.resolve_task_key`.
    ``deps`` lists the ``task_id``s that must complete (or be cached) first.
    """

    kind: str
    params: Dict[str, object]
    task_id: str
    key: str = ""
    deps: Tuple[str, ...] = ()


@dataclass
class SweepSpec:
    """A declarative sweep: one task kind crossed over its axes.

    Axes not used by the kind (e.g. ``workloads`` for a device-level
    characterisation) are ignored; ``params`` carries the shared budget knobs
    (shots, trajectories, ...) merged into every task's parameters.
    """

    name: str
    kind: str
    devices: Sequence[str] = ("ibmq_rome",)
    cycles: Sequence[int] = (0,)
    workloads: Sequence[str] = ()
    seeds: Sequence[int] = (0,)
    params: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "devices": list(self.devices),
            "cycles": [int(c) for c in self.cycles],
            "workloads": list(self.workloads),
            "seeds": [int(s) for s in self.seeds],
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown sweep spec fields: {sorted(unknown)}")
        return cls(**payload)  # type: ignore[arg-type]


def expand_sweep(
    specs: "SweepSpec | Sequence[SweepSpec]",
    summary: bool = True,
) -> List[TaskSpec]:
    """Expand sweep spec(s) into a task DAG (leaves + optional summary node).

    Every leaf's store key is resolved here — key resolution is pure and
    cheap (device/calibration fingerprints are memoized per process), so the
    orchestrator can decide cached-vs-pending for the whole DAG up front.
    """
    from .tasks import axes_of, resolve_task_key

    if isinstance(specs, SweepSpec):
        specs = [specs]
    tasks: List[TaskSpec] = []
    seen_ids: Dict[str, TaskSpec] = {}
    seen_keys: set = set()
    for spec in specs:
        axes = axes_of(spec.kind)
        pools: List[List] = []
        names: List[str] = []
        if "device" in axes:
            pools.append(list(spec.devices))
            names.append("device")
        if "cycle" in axes:
            pools.append([int(c) for c in spec.cycles])
            names.append("cycle")
        if "workload" in axes:
            if not spec.workloads:
                raise ValueError(
                    f"sweep '{spec.name}' of kind '{spec.kind}' needs workloads"
                )
            pools.append(list(spec.workloads))
            names.append("benchmark")
        if "seed" in axes:
            pools.append([int(s) for s in spec.seeds])
            names.append("seed")
        for point in itertools.product(*pools):
            params = dict(spec.params)
            params.update(dict(zip(names, point)))
            key = resolve_task_key(spec.kind, params)
            if key in seen_keys:
                continue  # fused sweeps may overlap; one task per key is enough
            seen_keys.add(key)
            task_id = f"{spec.kind}:" + ":".join(str(v) for v in point)
            if task_id in seen_ids:
                # Same axes but different params (distinct keys): keep both,
                # disambiguated by a key prefix so journals stay per-task.
                task_id = f"{task_id}#{key[:8]}"
            task = TaskSpec(
                kind=spec.kind,
                params=params,
                task_id=task_id,
                key=key,
            )
            seen_ids[task_id] = task
            tasks.append(task)
    if summary and tasks:
        from .tasks import summary_task

        tasks.append(summary_task([t for t in tasks]))
    return tasks


def load_spec(path: str) -> List[SweepSpec]:
    """Load one or many sweep specs from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if "sweeps" in payload:
        shared = payload.get("name", "sweep")
        return [
            SweepSpec.from_dict({"name": f"{shared}/{i}", **entry})
            for i, entry in enumerate(payload["sweeps"])
        ]
    return [SweepSpec.from_dict(payload)]


def smoke_spec(scale: float = 1.0, seed: int = 7) -> List[SweepSpec]:
    """The built-in CLI smoke sweep: tiny but exercises every layer.

    One motivation figure, one calibration-drift probe, one full policy
    comparison (ADAPT + Runtime-Best included) and two heavy-hex scaling
    points on the 127-qubit Eagle lattice — the fixed QFT-6A transpile
    probe plus a parametric ``MIRROR:48@7`` verification workload whose
    48-qubit active space actually exercises the device-scale
    stabilizer-frames path — enough to touch the transpiler (cached
    distance matrices at scale included), the batch executor, both
    stabilizer fast paths and the store, in a few seconds.  ``scale``
    multiplies the shot budgets (the CI job uses the default).
    """
    shots = max(64, int(512 * scale))
    return [
        SweepSpec(
            name="smoke/motivation",
            kind="figure1",
            devices=("ibmq_london",),
            cycles=(0,),
            seeds=(seed,),
            params={"shots": shots},
        ),
        SweepSpec(
            name="smoke/drift",
            kind="drift",
            devices=("ibmq_rome",),
            seeds=(seed,),
            params={
                "cycles": [0, 1],
                "idle_qubit": 0,
                "link": [1, 2],
                "idle_ns": 1200.0,
                "thetas": [1.5707963267948966],
                "shots": shots,
            },
        ),
        SweepSpec(
            name="smoke/scaling",
            kind="hardware_scaling",
            devices=("ibm_washington",),
            cycles=(0,),
            workloads=("QFT-6A", "MIRROR:48@7"),
            seeds=(seed,),
            params={"shots": shots, "trajectories": 40},
        ),
        SweepSpec(
            name="smoke/evaluation",
            kind="policy_comparison",
            devices=("ibmq_rome",),
            cycles=(0,),
            workloads=("ADDER-4",),
            seeds=(seed,),
            params={
                "shots": shots,
                "decoy_shots": max(64, int(256 * scale)),
                "trajectories": 40,
                "runtime_best_max_evaluations": 8,
            },
        ),
    ]

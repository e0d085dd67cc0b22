"""The task-kind registry: experiment drivers as schedulable, keyable units.

Each registered kind binds three things:

* ``axes`` — which sweep axes it consumes (``device`` / ``cycle`` /
  ``workload`` / ``seed``), used by :func:`repro.runtime.spec.expand_sweep`;
* ``defaults`` — the kind's budget knobs.  Defaults are merged into the
  parameters *before* key resolution, so an explicit ``shots=4096`` and a
  defaulted one produce the same key;
* ``execute`` — the driver call, a pure function of the merged parameters
  and the :class:`TaskScope` it runs in.  Only ``sweep_summary`` reads the
  scope's store (a result is stored once, under its task key, by whoever
  runs the task), and only ``benchmark_run`` its execution contexts.

Task keys are :func:`repro.store.keys.task_key` over the merged parameters
plus the **calibration content fingerprint** of every ``(device, cycle)``
the task touches — the store invalidates itself when the calibration model
changes.  A process keeps one backend per ``(device, cycle)``
(:func:`task_backend`): keys fingerprint its calibration, and tasks and
execution contexts run on it, so a sweep generates each calibration once.
Resolving keys for a thousand-task sweep costs milliseconds, which is what
makes warm re-runs of whole sweeps near-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..hardware.backend import Backend
from ..store.keys import calibration_fingerprint, task_key
from ..workloads.suite import get_benchmark
from .spec import TaskSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.requests import ContextCache
    from ..store.store import ExperimentStore

__all__ = [
    "TaskKind",
    "TaskScope",
    "available_task_kinds",
    "axes_of",
    "register_task_kind",
    "resolve_task_key",
    "run_task",
    "summary_task",
    "task_backend",
]

Arrays = Dict[str, object]


@dataclass(frozen=True)
class TaskScope:
    """What a task runs in: the store (read by ``sweep_summary``) and the
    execution contexts (used by ``benchmark_run``)."""

    store: Optional["ExperimentStore"]
    contexts: "ContextCache"


ExecuteFn = Callable[[Dict[str, object], TaskScope], Tuple[dict, Arrays]]


@dataclass(frozen=True)
class TaskKind:
    """One registered experiment-task kind."""

    name: str
    axes: Tuple[str, ...]
    defaults: Dict[str, object]
    execute: ExecuteFn
    #: extra key ingredients beyond merged params (calibration fingerprints)
    key_extras: Callable[[Dict[str, object]], Dict[str, object]]


_REGISTRY: Dict[str, TaskKind] = {}

#: Parameters older spec files and journals may carry but no task reads
#: (the retired fan-out and batching knobs).  They stay out of keys, so such
#: specs keep their keys.
_NON_KEY_PARAMS = ("n_workers", "use_batch")


def register_task_kind(kind: TaskKind) -> TaskKind:
    """Register a task kind (the built-ins below use this too).

    Custom kinds slot into sweeps and the CLI exactly like the built-ins;
    their ``key_extras`` must fold in every result-determining ingredient
    that is not already in the parameters (calibration fingerprints for any
    backend touched).
    """
    _REGISTRY[kind.name] = kind
    return kind


_register = register_task_kind


def available_task_kinds() -> List[str]:
    return sorted(_REGISTRY)


def _get_kind(name: str) -> TaskKind:
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown task kind '{name}'; registered kinds: {available_task_kinds()}"
        ) from exc


def axes_of(kind: str) -> Tuple[str, ...]:
    return _get_kind(kind).axes


#: Parameter name each sweep axis supplies ("cycle" is optional — every kind
#: with a cycle axis carries ``cycle: 0`` in its defaults, so an omitted
#: cycle and an explicit cycle=0 resolve to the same key).
_AXIS_PARAMS = {"device": "device", "workload": "benchmark", "seed": "seed"}


def required_params(kind: str) -> Tuple[str, ...]:
    """Parameters a task of this kind cannot run without (beyond defaults)."""
    return tuple(
        _AXIS_PARAMS[axis] for axis in _get_kind(kind).axes if axis in _AXIS_PARAMS
    )


def merged_params(kind: str, params: Dict[str, object]) -> Dict[str, object]:
    """The kind's defaults overlaid with ``params``.

    ``benchmark`` is spelled as its resolver names it, so ``qft-6a`` and
    ``QFT-6A`` are one task with one key; a name that does not resolve (the
    device-proportional ``MIRROR:half@7``, an unknown name) stays as given.
    """
    merged = dict(_get_kind(kind).defaults)
    merged.update(params)
    if "benchmark" in merged:
        try:
            merged["benchmark"] = get_benchmark(str(merged["benchmark"])).name
        except (KeyError, ValueError):
            pass
    return merged


def resolve_task_key(kind: str, params: Dict[str, object]) -> str:
    """The content-addressed store key of one task."""
    spec = _get_kind(kind)
    merged = merged_params(kind, params)
    keyed = {k: v for k, v in merged.items() if k not in _NON_KEY_PARAMS}
    keyed.update(spec.key_extras(merged))
    return task_key(kind, keyed)


def run_task(
    kind: str,
    params: Dict[str, object],
    store: Optional["ExperimentStore"] = None,
    contexts: Optional["ContextCache"] = None,
) -> Tuple[dict, Arrays]:
    """Execute one task and return its ``(meta, arrays)`` record payload.

    ``contexts`` is the caller's :class:`~repro.service.requests.ContextCache`
    (an orchestrator's or a daemon's); without one the task gets a fresh
    cache, so a direct call computes everything itself.
    """
    from ..service.requests import ContextCache

    spec = _get_kind(kind)
    scope = TaskScope(store, ContextCache() if contexts is None else contexts)
    return spec.execute(merged_params(kind, params), scope)


# ---------------------------------------------------------------------------
# One backend per (device, cycle)
# ---------------------------------------------------------------------------

#: Backends a process keeps; more than any sweep or daemon here touches
#: (a paper sweep uses one (device, cycle), serve-burst and the smoke sweep
#: four).
MAX_TASK_BACKENDS = 16


# A process-level memo may hold inputs only: devices, calibrations, backends
# and fingerprints.  Compiled programs and exact vectors live on execution
# contexts and executors, which a caller (and a test) can leave out; a
# process-level memo of results would make every fresh-executor reference
# compare a memo hit with itself.  Call both memos positionally as
# ``(str, int)``: lru_cache keys ``cycle=0`` and ``0`` apart.
@lru_cache(maxsize=MAX_TASK_BACKENDS)
def task_backend(device: str, cycle: int) -> Backend:
    """The process's backend for a named device and calibration cycle.

    Task keys fingerprint its calibration, and tasks and execution contexts
    run on it.  Safe from any thread: a race builds an equal backend twice.
    """
    return Backend.from_name(device, cycle=cycle)


@lru_cache(maxsize=None)
def _calibration_fp(device: str, cycle: int) -> str:
    return calibration_fingerprint(task_backend(device, cycle).calibration)


def _backend(params: Dict[str, object]) -> Backend:
    return task_backend(str(params["device"]), int(params.get("cycle", 0)))


def _cal_extras(params: Dict[str, object]) -> Dict[str, object]:
    return {
        "calibration": _calibration_fp(
            str(params["device"]), int(params.get("cycle", 0))
        )
    }


# ---------------------------------------------------------------------------
# Kind implementations
# ---------------------------------------------------------------------------


def _execute_figure1(params, scope):
    from ..analysis.motivation import figure1_motivation_study

    values = figure1_motivation_study(
        backend=_backend(params),
        shots=int(params["shots"]),
        seed=int(params["seed"]),
    )
    return {"kind": "figure1", "values": values}, {}


_register(
    TaskKind(
        name="figure1",
        axes=("device", "cycle", "seed"),
        defaults={"cycle": 0, "shots": 4096},
        execute=_execute_figure1,
        key_extras=_cal_extras,
    )
)


def _execute_table1(params, scope):
    from ..analysis.motivation import table1_idle_fractions
    from ..store.records import encode_rows

    rows = table1_idle_fractions(
        device_name=str(params["device"]),
        benchmarks=tuple(params["benchmarks"]),
        shots=int(params["shots"]),
        seed=int(params["seed"]),
    )
    return encode_rows("table1", rows)


_register(
    TaskKind(
        name="table1",
        axes=("device", "seed"),
        defaults={"benchmarks": ["QFT-5", "QAOA-5", "ADDER-4"], "shots": 4096},
        execute=_execute_table1,
        key_extras=lambda p: {"calibration": _calibration_fp(str(p["device"]), 0)},
    )
)


def _execute_swap_idle(params, scope):
    from dataclasses import asdict

    from ..analysis.motivation import figure3_swap_idle_study
    from ..store.records import encode_rows

    records = figure3_swap_idle_study(
        sizes=tuple(int(s) for s in params["sizes"]),
        device_name=str(params["device"]),
    )
    return encode_rows("swap_idle", [asdict(r) for r in records])


_register(
    TaskKind(
        name="swap_idle",
        axes=("device",),
        defaults={"sizes": [4, 5, 6, 7, 8]},
        execute=_execute_swap_idle,
        key_extras=lambda p: {"calibration": _calibration_fp(str(p["device"]), 0)},
    )
)


def _execute_idling_study(params, scope):
    from ..analysis.characterization import DEFAULT_THETAS, single_qubit_idling_study
    from ..store.records import encode_rows

    link = params.get("active_link")
    rows = single_qubit_idling_study(
        backend=_backend(params),
        idle_qubit=int(params["idle_qubit"]),
        active_link=None if link is None else tuple(int(q) for q in link),
        idle_ns=float(params["idle_ns"]),
        thetas=tuple(params.get("thetas") or DEFAULT_THETAS),
        dd_sequence=str(params["dd_sequence"]),
        shots=int(params["shots"]),
        seed=int(params["seed"]),
    )
    return encode_rows("idling_study", rows)


_register(
    TaskKind(
        name="idling_study",
        axes=("device", "cycle", "seed"),
        defaults={
            "cycle": 0,
            "idle_qubit": 0,
            "active_link": None,
            "idle_ns": 1200.0,
            "thetas": None,
            "dd_sequence": "xy4",
            "shots": 2048,
        },
        execute=_execute_idling_study,
        key_extras=_cal_extras,
    )
)


def _execute_characterization(params, scope):
    from dataclasses import asdict

    from ..analysis.characterization import DEFAULT_THETAS, full_device_characterization
    from ..store.records import encode_rows

    records = full_device_characterization(
        backend=_backend(params),
        idle_ns=float(params["idle_ns"]),
        thetas=tuple(params.get("thetas") or DEFAULT_THETAS),
        dd_sequence=str(params["dd_sequence"]),
        shots=int(params["shots"]),
        max_combinations=params.get("max_combinations"),
        seed=int(params["seed"]),
    )
    return encode_rows("characterization", [asdict(r) for r in records])


_register(
    TaskKind(
        name="characterization",
        axes=("device", "cycle", "seed"),
        defaults={
            "cycle": 0,
            "idle_ns": 8000.0,
            "thetas": None,
            "dd_sequence": "xy4",
            "shots": 1024,
            "max_combinations": None,
        },
        execute=_execute_characterization,
        key_extras=_cal_extras,
    )
)


def _execute_drift(params, scope):
    from ..analysis.characterization import DEFAULT_THETAS, calibration_drift_study
    from ..store.records import jsonable

    results = calibration_drift_study(
        device_name=str(params["device"]),
        idle_qubit=int(params["idle_qubit"]),
        link=tuple(int(q) for q in params["link"]),
        cycles=tuple(int(c) for c in params["cycles"]),
        idle_ns=float(params["idle_ns"]),
        thetas=tuple(params.get("thetas") or DEFAULT_THETAS),
        dd_sequence=str(params["dd_sequence"]),
        shots=int(params["shots"]),
        seed=int(params["seed"]),
    )
    meta = {
        "kind": "drift",
        "cycles": {str(cycle): jsonable(rows) for cycle, rows in results.items()},
    }
    return meta, {}


_register(
    TaskKind(
        name="drift",
        axes=("device", "seed"),
        defaults={
            "cycles": [0, 1],
            "idle_qubit": 0,
            "link": [1, 2],
            "idle_ns": 2400.0,
            "thetas": None,
            "dd_sequence": "xy4",
            "shots": 2048,
        },
        execute=_execute_drift,
        key_extras=lambda p: {
            "calibrations": [
                _calibration_fp(str(p["device"]), int(c)) for c in p["cycles"]
            ]
        },
    )
)


def _execute_pulse_type(params, scope):
    from ..analysis.characterization import pulse_type_study
    from ..store.records import encode_rows

    link = params.get("active_link")
    rows = pulse_type_study(
        backend=_backend(params),
        idle_qubit=int(params["idle_qubit"]),
        active_link=None if link is None else tuple(int(q) for q in link),
        idle_times_ns=tuple(float(t) for t in params["idle_times_ns"]),
        theta=float(params["theta"]),
        shots=int(params["shots"]),
        seed=int(params["seed"]),
        max_probe_qubits=params.get("max_probe_qubits"),
    )
    return encode_rows("pulse_type", rows)


_register(
    TaskKind(
        name="pulse_type",
        axes=("device", "cycle", "seed"),
        defaults={
            "cycle": 0,
            "idle_qubit": 0,
            "active_link": None,
            "idle_times_ns": [1000.0, 2000.0, 4000.0, 8000.0, 16000.0],
            "theta": 1.5707963267948966,
            "shots": 2048,
            "max_probe_qubits": 8,
        },
        execute=_execute_pulse_type,
        key_extras=_cal_extras,
    )
)


def _execute_policy_comparison(params, scope):
    from ..analysis.evaluation_runs import EvaluationConfig, run_policy_comparison
    from ..store.records import encode_evaluation

    config = EvaluationConfig(
        dd_sequence=str(params["dd_sequence"]),
        shots=int(params["shots"]),
        decoy_shots=int(params["decoy_shots"]),
        trajectories=int(params["trajectories"]),
        include_runtime_best=bool(params["include_runtime_best"]),
        runtime_best_max_evaluations=int(params["runtime_best_max_evaluations"]),
        seed=int(params["seed"]),
        adapt_decoy_kind=str(params["adapt_decoy_kind"]),
        adapt_group_size=int(params["adapt_group_size"]),
        engine=str(params["engine"]),
        final_engine=str(params["final_engine"]),
    )
    evaluation = run_policy_comparison(
        str(params["benchmark"]), _backend(params), config
    )
    meta, arrays = encode_evaluation(evaluation)
    meta["task"] = {
        "benchmark": str(params["benchmark"]),
        "device": str(params["device"]),
        "cycle": int(params.get("cycle", 0)),
        "seed": int(params["seed"]),
    }
    return meta, arrays


_register(
    TaskKind(
        name="policy_comparison",
        axes=("device", "cycle", "workload", "seed"),
        defaults={
            "cycle": 0,
            "dd_sequence": "xy4",
            "shots": 4096,
            "decoy_shots": 2048,
            "trajectories": 100,
            "include_runtime_best": True,
            "runtime_best_max_evaluations": 32,
            "adapt_decoy_kind": "sdc",
            "adapt_group_size": 4,
            "engine": "auto",
            "final_engine": "auto_dense",
        },
        execute=_execute_policy_comparison,
        key_extras=_cal_extras,
    )
)


def _execute_hardware_scaling(params, scope):
    from dataclasses import asdict

    from ..analysis.scaling import hardware_scaling_point
    from ..store.records import encode_rows

    engine = params.get("engine")
    record = hardware_scaling_point(
        _backend(params),
        benchmark=str(params["benchmark"]),
        shots=int(params["shots"]),
        trajectories=int(params["trajectories"]),
        seed=int(params["seed"]),
        engine=None if engine is None else str(engine),
    )
    return encode_rows("hardware_scaling", [asdict(record)])


_register(
    TaskKind(
        name="hardware_scaling",
        axes=("device", "cycle", "workload", "seed"),
        defaults={
            "cycle": 0,
            "shots": 2048,
            "trajectories": 60,
            # None = per-workload policy (BenchmarkSpec.default_engine):
            # mirror workloads ride the stabilizer path, everything else
            # stays a measurement context on auto_dense.
            "engine": None,
        },
        execute=_execute_hardware_scaling,
        key_extras=_cal_extras,
    )
)


def _execute_benchmark_run(params, scope):
    from ..service.requests import RunRequest, execute_run_requests

    request = RunRequest.from_params(params)
    (outcome,) = execute_run_requests([request], contexts=scope.contexts).values()
    return outcome.meta, {}


_register(
    TaskKind(
        name="benchmark_run",
        axes=("device", "cycle", "workload", "seed"),
        defaults={
            "cycle": 0,
            "shots": 2048,
            "trajectories": 60,
            # None = per-workload policy, as in hardware_scaling: mirror
            # workloads ride stabilizer_frames, the rest auto_dense.
            "engine": None,
            # Result-determining device bound: fixes the chunk/seed plan
            # (must equal service.requests.DEFAULT_MAX_SHOTS — tested).
            "max_shots": 8192,
        },
        execute=_execute_benchmark_run,
        key_extras=_cal_extras,
    )
)


def _execute_decoy_correlation(params, scope):
    from ..analysis.decoy_quality import decoy_correlation_study
    from ..store.records import encode_decoy_correlation

    result = decoy_correlation_study(
        benchmark=str(params["benchmark"]),
        backend=_backend(params),
        decoy_kind=str(params["decoy_kind"]),
        dd_sequence=str(params["dd_sequence"]),
        shots=int(params["shots"]),
        seed=int(params["seed"]),
        max_qubits=int(params["max_qubits"]),
    )
    return encode_decoy_correlation(result)


_register(
    TaskKind(
        name="decoy_correlation",
        axes=("device", "cycle", "workload", "seed"),
        defaults={
            "cycle": 0,
            "decoy_kind": "cdc",
            "dd_sequence": "xy4",
            "shots": 2048,
            "max_qubits": 6,
        },
        execute=_execute_decoy_correlation,
        key_extras=_cal_extras,
    )
)


# ---------------------------------------------------------------------------
# The summary node (DAG root)
# ---------------------------------------------------------------------------


def _headline(meta: dict):
    """One glanceable number per record kind, for ``repro report``."""
    kind = meta.get("kind")
    if kind == "benchmark_evaluation":
        outcomes = meta.get("outcomes", {})
        adapt = outcomes.get("adapt")
        if adapt:
            return {"adapt_relative_fidelity": adapt["relative_fidelity"]}
        return {"policies": sorted(outcomes)}
    if kind == "benchmark_run":
        request = meta.get("request", {})
        headline = {
            "benchmark": request.get("benchmark"),
            "shots": meta.get("shots"),
            "chunks": meta.get("chunks"),
            "fidelity": meta.get("fidelity"),
        }
        if meta.get("mirror_target"):
            headline["success_probability"] = meta.get("success_probability")
            headline["verified"] = meta.get("mirror_verified")
        return headline
    if kind == "decoy_correlation":
        return {"correlation": meta.get("correlation")}
    if kind == "figure1":
        values = meta.get("values", {})
        best = max(values, key=values.get) if values else None
        return {"best_option": best}
    if kind == "hardware_scaling":
        rows = meta.get("rows", [])
        if rows:
            row = rows[0]
            headline = {
                "device": row.get("device"),
                "num_qubits": row.get("num_qubits"),
                "fidelity": row.get("fidelity"),
            }
            if row.get("mirror_target"):
                headline["success_probability"] = row.get("success_probability")
                headline["flip_free_probability"] = row.get("flip_free_probability")
                headline["verified"] = row.get("mirror_verified")
            return headline
        return {"rows": 0}
    if "rows" in meta:
        return {"rows": len(meta["rows"])}
    if "cycles" in meta:
        return {"cycles": sorted(meta["cycles"])}
    return {}


def _execute_summary(params, scope):
    store = scope.store
    if store is None:
        raise ValueError("sweep_summary needs the store to read its inputs")
    tasks: Dict[str, str] = dict(params["tasks"])
    entries = {}
    for task_id, key in sorted(tasks.items()):
        record = store.get(key)
        entries[task_id] = {
            "key": key,
            "kind": None if record is None else record.kind,
            "headline": {} if record is None else _headline(record.meta),
        }
    return {"kind": "sweep_summary", "tasks": entries}, {}


_register(
    TaskKind(
        name="sweep_summary",
        axes=(),
        defaults={},
        execute=_execute_summary,
        key_extras=lambda p: {},
    )
)


def summary_task(leaves: Sequence[TaskSpec]) -> TaskSpec:
    """The DAG root: aggregates every leaf record after they all complete."""
    params = {"tasks": {leaf.task_id: leaf.key for leaf in leaves}}
    return TaskSpec(
        kind="sweep_summary",
        params=params,
        task_id="sweep_summary",
        key=resolve_task_key("sweep_summary", params),
        deps=tuple(leaf.task_id for leaf in leaves),
    )

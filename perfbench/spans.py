"""Span tracing from outside the program.

:func:`install` wraps each layer's public entry point where its callers look
it up: a function is replaced in every loaded ``repro`` module that bound it
by name (``sabre_route`` as bound in ``repro.transpiler.transpile``,
``compiled_ideal_distribution`` as bound in ``repro.analysis.scaling``), and
a method is replaced on its class (``ExperimentStore.put``,
``LeaseManager.try_claim``) or on the registered engine instance.  The
program itself is not modified.

Spans are kept in memory as ``(name, start, end, parent, run id)`` and
written out as JSON lines when the run ends; the counters next to them are
read from return values at the same boundaries.
"""

from __future__ import annotations

import copy
import functools
import importlib
import json
import sys
import threading
import time
import weakref
from typing import Callable, Dict, List

from stats import self_times


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self.counts: Dict[str, int] = {}
        #: Spans opened per name: the call count beside every timed layer.
        self.calls: Dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen_programs: Dict[str, weakref.WeakSet] = {}
        self._replays: List[tuple] = []
        self.record_replays = False
        #: Off while the benchmark reads outputs back for its checks.
        self.active = True

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(amount)

    def span(self, name: str, fn: Callable, /, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self.calls[name] = self.calls.get(name, 0) + 1
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "parent": stack[-1] if stack else None,
                "name": name,
                "run": self.run_id,
                "start": time.perf_counter(),
                "end": None,
            }
            self.spans.append(record)
        stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def self_times(self) -> Dict[str, float]:
        return self_times([s for s in self.spans if s["end"] is not None])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")

    # -- the engine first/repeat split ---------------------------------

    def engine_run(self, name: str, original: Callable, program, jobs, trajectories, /, **kw):
        """One engine call, named by whether this engine has seen the program.

        The first run of a program builds the engine's memoised noise tables
        and window-variant stacks; repeats reuse them.  With
        ``record_replays`` the first run's jobs are copied so that
        :meth:`replay_first_runs` can repeat the identical call afterwards.
        """
        if not self.active:
            return original(program, jobs, trajectories, **kw)
        seen = self._seen_programs.setdefault(name, weakref.WeakSet())
        first = program not in seen
        seen.add(program)
        if first and self.record_replays:
            self._replays.append((name, original, program, copy.deepcopy(jobs), trajectories))
        self.count("engine.jobs", len(jobs))
        phase = "first_run" if first else "repeat_run"
        return self.span(f"engine.{name}.{phase}", original, program, jobs, trajectories, **kw)

    def replay_first_runs(self) -> None:
        replays, self._replays = self._replays, []
        for name, original, program, jobs, trajectories in replays:
            self.engine_run(name, original, program, jobs, trajectories)


def _wrapper(tracer: Tracer, original: Callable, name: str, after=None) -> Callable:
    """``original`` inside a span; ``after`` reads a count off the result."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        result = tracer.span(name, original, *args, **kwargs)
        if after is not None:
            after(result)
        return result

    return wrapper


def _wrap_function(tracer: Tracer, original: Callable, name: str, after=None) -> None:
    """Replace ``original`` in every repro module that bound it by name."""
    wrapper = _wrapper(tracer, original, name, after)
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                replaced += 1
    if not replaced:
        raise RuntimeError(f"tracer found no binding of {original!r}")


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, after=None) -> None:
    setattr(cls, attr, _wrapper(tracer, getattr(cls, attr), name, after))


def install(run_id: str) -> Tracer:
    """Wrap every traced layer, loading first the modules whose bindings it
    replaces, and return the tracer that records them."""
    import repro.analysis.decoy_quality  # noqa: F401 - loads the bindings rebound below
    import repro.analysis.evaluation_runs  # noqa: F401
    import repro.analysis.scaling  # noqa: F401
    import repro.core.evaluation as evaluation
    import repro.hardware.calibration as calibration
    import repro.hardware.devices as devices
    import repro.runtime.orchestrator  # noqa: F401
    import repro.service.requests  # noqa: F401
    from repro.core.adapt import Adapt
    from repro.core.decoy import DecoyCircuit, make_decoy
    from repro.core.policies import RuntimeBestPolicy
    from repro.hardware.backend import Backend
    from repro.hardware.program import ProgramCache
    from repro.runtime.leases import LeaseManager
    from repro.simulators.engines import available_engines, get_engine
    from repro.store.store import ExperimentStore
    from repro.workloads.suite import BenchmarkSpec

    # The package re-exports the function under the submodule's name.
    transpile = importlib.import_module("repro.transpiler.transpile")

    tracer = Tracer(run_id)
    fn = functools.partial(_wrap_function, tracer)
    method = functools.partial(_wrap_method, tracer)

    fn(devices.get_device, "hardware.device_build")
    fn(devices.synthetic_device, "hardware.device_build")
    fn(calibration.generate_calibration, "hardware.device_build")
    method(BenchmarkSpec, "build", "workloads.build")

    fn(transpile.decompose_to_basis, "transpiler.decompose")
    fn(transpile.optimize_circuit, "transpiler.optimize")
    fn(transpile.noise_adaptive_layout, "transpiler.layout")
    fn(transpile.trivial_layout, "transpiler.layout")
    fn(
        transpile.sabre_route,
        "transpiler.route",
        after=lambda routed: tracer.count("transpiler.swaps", routed.num_swaps),
    )
    fn(
        transpile.transpile,
        "transpiler.transpile",
        after=lambda compiled: tracer.count("transpiler.gates", compiled.gate_count()),
    )
    method(Backend, "schedule", "gst.schedule")

    def compiled(result) -> None:
        program, hit = result
        if hit:
            tracer.count("program.hits")
        else:
            tracer.count("program.compiles")
            tracer.count("program.windows", len(program.windows))

    method(ProgramCache, "get", "program.compile", after=compiled)

    for engine_name in available_engines():
        engine = get_engine(engine_name)
        engine.run = functools.partial(tracer.engine_run, engine_name, engine.run)

    fn(evaluation.compiled_ideal_distribution, "ideal.compute")
    method(Adapt, "select", "adapt.select")
    fn(make_decoy, "adapt.decoy")
    method(DecoyCircuit, "ideal_distribution", "adapt.decoy")
    method(RuntimeBestPolicy, "decide", "runtime_best.decide")

    def looked_up(result) -> None:
        tracer.count("store.misses" if result is None or result is False else "store.hits")

    method(ExperimentStore, "put", "store.put", after=lambda _: tracer.count("store.writes"))
    method(ExperimentStore, "get", "store.get", after=looked_up)
    method(ExperimentStore, "contains", "store.contains", after=looked_up)
    method(
        LeaseManager,
        "try_claim",
        "lease.claim",
        after=lambda claimed: tracer.count("lease.claims", 1 if claimed else 0),
    )
    return tracer


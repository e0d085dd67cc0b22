"""repro: a full reproduction of ADAPT (MICRO 2021) — adaptive dynamical decoupling.

The package provides everything the paper's system depends on, built from
scratch in Python:

* :mod:`repro.circuits` — circuit IR (gates, circuits, dependency DAGs);
* :mod:`repro.simulators` — statevector, density-matrix and stabilizer
  simulators, Kraus channels, and the pluggable
  execution-engine registry (density matrix, trajectories, Clifford
  stabilizer fast path);
* :mod:`repro.hardware` — IBMQ device models, calibration snapshots, the
  compiled-program layer (:class:`~repro.hardware.program.CompiledNoisyProgram`)
  and the executor that runs single jobs and batches over it;
* :mod:`repro.noise` — gate/readout noise and the idle-window noise model
  (crosstalk, DD refocusing, DD pulse cost);
* :mod:`repro.transpiler` — basis decomposition, noise-adaptive layout, SABRE
  routing and cleanup passes;
* :mod:`repro.dd` — DD pulse sequences (XY4, IBMQ-DD, CPMG) and idle-window
  insertion;
* :mod:`repro.core` — the paper's contribution: Gate Sequence Table, decoy
  circuits, localized search, the four DD policies and the ADAPT pass itself;
* :mod:`repro.workloads` — the Table 4 benchmark suite (BV, QFT, QAOA, Adder,
  QPE);
* :mod:`repro.metrics` — TVD fidelity, Spearman correlation, entropy and
  summary statistics;
* :mod:`repro.analysis` — experiment drivers that regenerate every table and
  figure of the paper;
* :mod:`repro.store` — the content-addressed experiment store (stable
  SHA-256 keys over circuit/calibration/policy content; in-memory LRU over
  JSON-manifested ``.npz`` artifacts on disk);
* :mod:`repro.runtime` — the resumable sweep orchestrator behind the
  ``python -m repro`` CLI (``run`` / ``sweep`` / ``ls`` / ``gc`` /
  ``report``).

Quickstart::

    from repro import Backend, NoisyExecutor, transpile, Adapt
    from repro.workloads import get_benchmark

    backend = Backend.from_name("ibmq_guadalupe")
    compiled = transpile(get_benchmark("QFT-6A").build(), backend)
    adapt = Adapt(NoisyExecutor(backend, seed=1))
    selection = adapt.select(compiled)
    print("DD on qubits:", sorted(selection.assignment.qubits))
"""

from .circuits import Gate, QuantumCircuit
from .simulators import (
    DensityMatrixSimulator,
    StabilizerSimulator,
    StatevectorSimulator,
)
from .hardware import (
    Backend,
    BatchJob,
    CompiledNoisyProgram,
    NoisyExecutor,
    get_device,
    list_devices,
)
from .transpiler import CompiledProgram, transpile
from .dd import DDAssignment, DDPlan, get_sequence, plan_dd
from .core import (
    Adapt,
    AdaptConfig,
    GateSequenceTable,
    evaluate_policies,
    standard_policies,
)
from .metrics import fidelity, total_variation_distance
from .store import ExperimentStore
from .runtime import SweepOrchestrator, SweepSpec

__version__ = "1.1.0"

__all__ = [
    "Adapt",
    "AdaptConfig",
    "Backend",
    "BatchJob",
    "CompiledNoisyProgram",
    "CompiledProgram",
    "DDAssignment",
    "DDPlan",
    "DensityMatrixSimulator",
    "ExperimentStore",
    "Gate",
    "GateSequenceTable",
    "NoisyExecutor",
    "QuantumCircuit",
    "StabilizerSimulator",
    "StatevectorSimulator",
    "SweepOrchestrator",
    "SweepSpec",
    "evaluate_policies",
    "fidelity",
    "get_device",
    "get_sequence",
    "list_devices",
    "plan_dd",
    "standard_policies",
    "transpile",
    "total_variation_distance",
    "__version__",
]

"""Simulation engines: statevector and stabilizer tableau.

:mod:`repro.simulators.engines` additionally hosts the pluggable
execution-engine registry consumed by ``repro.hardware`` (density matrix,
trajectories, the Clifford stabilizer fast path, and the sparse
device-scale ``stabilizer_frames`` path).
"""

from .statevector import SimulationError, StatevectorSimulator
from .stabilizer import PackedCliffordTableau, StabilizerSimulator
from . import symplectic
from .engines import (
    ExecutionEngine,
    SparseDistribution,
    available_engines,
    get_engine,
    register_engine,
    select_engine,
)
from . import channels

__all__ = [
    "ExecutionEngine",
    "SimulationError",
    "PackedCliffordTableau",
    "SparseDistribution",
    "StabilizerSimulator",
    "StatevectorSimulator",
    "available_engines",
    "channels",
    "get_engine",
    "register_engine",
    "select_engine",
    "symplectic",
]

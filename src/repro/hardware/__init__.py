"""Hardware models: topologies, device specs, calibrations, backends, execution."""

from .devices import (
    DEVICES,
    DeviceSpec,
    get_device,
    heavy_hex_device,
    list_devices,
    synthetic_device,
)
from .calibration import (
    Calibration,
    LinkCalibration,
    QubitCalibration,
    calibration_seed,
    generate_calibration,
)
from .backend import Backend
from .program import (
    CompiledNoisyProgram,
    ProgramCache,
    cached_gate_matrix,
    process_cache_stats,
)
from .execution import (
    DEFAULT_MEMORY_BUDGET_BYTES,
    BatchJob,
    ExecutionResult,
    NoisyExecutor,
    choose_branch,
    execute_program_jobs,
    job_sample_rng,
    job_streams,
)
from . import topologies

__all__ = [
    "Backend",
    "BatchJob",
    "Calibration",
    "CompiledNoisyProgram",
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "DEVICES",
    "DeviceSpec",
    "ExecutionResult",
    "LinkCalibration",
    "NoisyExecutor",
    "ProgramCache",
    "QubitCalibration",
    "cached_gate_matrix",
    "calibration_seed",
    "choose_branch",
    "execute_program_jobs",
    "generate_calibration",
    "get_device",
    "heavy_hex_device",
    "job_sample_rng",
    "job_streams",
    "list_devices",
    "process_cache_stats",
    "synthetic_device",
    "topologies",
]

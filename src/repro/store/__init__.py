"""Content-addressed experiment store.

Every headline artifact of the paper is a *sweep* — over devices, calibration
cycles, DD policies, workloads and seeds — and every point of a sweep is a
pure function of its configuration: the simulator is deterministic under the
per-job seed protocol, calibrations are derived from ``hashlib`` streams, and
the transpiler is deterministic given a backend.  That purity is what makes a
content-addressed results layer sound: a result can be keyed by the hash of
everything that determines it and replayed from disk forever after.

Two layers:

* :mod:`repro.store.keys` — canonical fingerprints (circuit structure,
  ``DeviceSpec``/``Calibration`` content) and the stable SHA-256 task keys,
  versioned by
  :data:`~repro.store.keys.SCHEMA_VERSION`;
* :mod:`repro.store.store` — :class:`ExperimentStore`, an in-memory LRU tier
  over an on-disk tier of JSON-manifested ``.npz`` artifacts, safe under
  concurrent writers via atomic rename, with corrupt-artifact recovery and
  explicit garbage collection.

:mod:`repro.store.records` holds the encoders that turn the analysis drivers'
result objects (``BenchmarkEvaluation``, ``DecoyCorrelation``,
characterisation rows) into store records.  Every record lives under the
task key of :mod:`repro.runtime.tasks` that produced it.
"""

from .keys import (
    SCHEMA_VERSION,
    calibration_fingerprint,
    canonical_json,
    circuit_fingerprint,
    device_fingerprint,
    fingerprint,
    task_key,
)
from .store import ExperimentStore, StoreRecord

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentStore",
    "StoreRecord",
    "calibration_fingerprint",
    "canonical_json",
    "circuit_fingerprint",
    "device_fingerprint",
    "fingerprint",
    "task_key",
]

"""Stable cache keys for the experiment store.

A store key must be identical across processes, machines and Python
invocations whenever the experiment it names is identical — and different
whenever *anything* that can change the result differs.  Keys are therefore
built exclusively from:

* canonical JSON (sorted keys, no whitespace, containers normalised) over
* pure values (names, integers, floats via their shortest ``repr``,
  booleans), hashed with
* SHA-256 (``hashlib`` — never Python's randomised ``hash()``).

A task key (:func:`task_key`, resolved by
:func:`repro.runtime.tasks.resolve_task_key`) folds in the task's merged
parameters — workload name, policy/engine configuration, budgets, seeds — and
the calibration content of every device snapshot it touches
(:func:`calibration_fingerprint`, which embeds :func:`device_fingerprint`):
*content*, not the ``(name, cycle)`` that generated it, so a change to the
calibration generator invalidates keys automatically.
:func:`circuit_fingerprint` names a circuit's structure; the compile pins of
the test suite hold it fixed for every paper workload.

Every key embeds :data:`SCHEMA_VERSION`.  Bump it when the meaning of stored
payloads changes (new fields with different semantics, re-interpreted arrays):
old records then simply stop matching and ``repro gc`` reclaims them.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuits.circuit import QuantumCircuit
    from ..hardware.calibration import Calibration
    from ..hardware.devices import DeviceSpec

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "fingerprint",
    "circuit_fingerprint",
    "device_fingerprint",
    "calibration_fingerprint",
    "task_key",
]

#: Version of the store's key + payload schema.  Part of every key; bumping it
#: orphans all existing records (reclaimed by ``repro gc``).
#:
#: 2: the heavy-hex scaling PR changed result-determining transpiler
#:    behaviour (layout scores placements with full-coupling-graph distances
#:    instead of region-subgraph path lengths) and threads a default memory
#:    budget into auto engine selection — task-level keys hash inputs, not
#:    compiled circuits, so pre-change records must stop matching.
#: 3: the parametric-workload PR reshaped the hardware_scaling record
#:    (mirror verification columns), changed the kind's default engine to
#:    the per-workload policy, and fixed the negative-coherent-DD-error noise
#:    path — stored results of affected tasks are no longer comparable.
SCHEMA_VERSION = 3


def _canonical(value):
    """Normalise a value into JSON-stable primitives.

    Tuples become lists, sets/frozensets become *sorted* lists, mappings are
    passed through (``json.dumps(sort_keys=True)`` orders them), and floats
    are kept as floats — CPython serialises them via the shortest round-trip
    ``repr``, which is deterministic across processes and platforms.
    """
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((_canonical(v) for v in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} into a store key;"
        " reduce it to names/numbers first"
    )


def canonical_json(value) -> str:
    """The canonical JSON serialisation used for all key hashing."""
    return json.dumps(
        _canonical(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint(value) -> str:
    """SHA-256 hex digest of a value's canonical JSON."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Domain fingerprints
# ---------------------------------------------------------------------------


def circuit_fingerprint(circuit: "QuantumCircuit") -> str:
    """Fingerprint of a circuit's *structure* (names/qubits/params/durations).

    The circuit's display name is deliberately excluded: renaming a circuit
    must not invalidate its results.
    """
    payload = {
        "num_qubits": circuit.num_qubits,
        "gates": [
            [g.name, list(g.qubits), list(g.params), g.duration, g.label]
            for g in circuit
        ],
    }
    return fingerprint(payload)


def device_fingerprint(device: "DeviceSpec") -> str:
    """Fingerprint of a static device specification."""
    payload = {
        "name": device.name,
        "num_qubits": device.num_qubits,
        "edges": [list(edge) for edge in device.edges],
        "cnot_error": device.cnot_error,
        "measurement_error": device.measurement_error,
        "sq_error": device.sq_error,
        "t1_us": device.t1_us,
        "t2_us": device.t2_us,
        "sq_gate_ns": device.sq_gate_ns,
        "cnot_duration_ns": device.cnot_duration_ns,
        "cnot_duration_spread": device.cnot_duration_spread,
        "measurement_ns": device.measurement_ns,
        "idle_dephasing_rate": device.idle_dephasing_rate,
    }
    return fingerprint(payload)


def calibration_fingerprint(calibration: "Calibration") -> str:
    """Fingerprint of a calibration snapshot's *content*.

    Hashing the sampled per-qubit / per-link / per-crosstalk values (rather
    than the ``(device, cycle)`` pair that seeded them) means any change to
    the calibration generator — new fields, different distributions — changes
    the fingerprint and therefore invalidates every dependent store entry,
    with no manual versioning.
    """
    payload = {
        "device": device_fingerprint(calibration.device),
        "cycle": calibration.cycle,
        "qubits": {
            str(q): [
                c.t1_ns,
                c.t2_ns,
                c.sq_error,
                c.readout_p01,
                c.readout_p10,
                c.static_dephasing_rate,
                c.background_zz_rate,
                c.noise_correlation_ns,
                c.dd_floor,
                c.dd_pulse_error,
                c.dd_coherent_error,
            ]
            for q, c in sorted(calibration.qubits.items())
        },
        "links": {
            f"{a}-{b}": [link.cnot_error, link.duration_ns]
            for (a, b), link in sorted(calibration.links.items())
        },
        "crosstalk": {
            f"{q}@{a}-{b}": [entry.dephasing_multiplier, entry.zz_shift_rate]
            for (q, (a, b)), entry in sorted(calibration.crosstalk.items())
        },
    }
    return fingerprint(payload)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def task_key(kind: str, params: Mapping[str, object]) -> str:
    """The store key of one task: ``(schema, kind, canonical params)``.

    ``params`` must already be reduced to canonicalisable values; nested
    fingerprints (circuit/calibration digests) are ordinary strings here.
    """
    return fingerprint({"schema": SCHEMA_VERSION, "kind": str(kind), "params": params})

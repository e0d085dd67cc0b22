"""Performance gates for the device-scale mirror-workload path.

The hardware-scaling study's whole point is that a 127-qubit mirror point is
*cheap*: the workload is Clifford, so execution rides the stabilizer path —
the sparse ``stabilizer_frames`` engine propagates Pauli frames in O(n) bits
per event instead of materialising any 2^n state.  Before this path existed,
the only engines able to express a 63-qubit active space would have needed a
dense state of 2^63 amplitudes: hours (or rather: impossible), not seconds.

Gates (nightly, non-blocking — wall-clock measurements are noisy on shared
runners):

* one cold end-to-end 127-qubit mirror scaling point (build + transpile +
  execute + verify) must finish inside :data:`MAX_POINT_SECONDS`;
* the point must actually run on the stabilizer path with a verified target;
* two independent computations of the point must agree bit-for-bit on every
  result field (the store's cold/warm contract), wall-clock fields excluded;
* a **scaling curve** of cold end-to-end mirror points on 63-, 255- and
  1023-qubit line devices, each verified and each inside its own per-width
  ceiling — the widths that exercise one, four and sixteen packed symplectic
  words per Pauli row — printing each width's device build (calibration
  generation) and gating the 1023-qubit build at
  :data:`MAX_DEVICE_BUILD_SECONDS`.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from repro.analysis.scaling import hardware_scaling_point
from repro.hardware import Backend, topologies
from repro.hardware.devices import synthetic_device
from repro.testing import print_section

#: Generous ceiling for one cold 127-qubit mirror point, end to end (seconds).
#: Measured ~1s on a laptop-class machine; "seconds, not hours".
MAX_POINT_SECONDS = 60.0

#: Per-width wall-clock ceilings (seconds) for the cold line-device scaling
#: curve, end to end (transpile + execute + ideal + verify; the device is
#: built before the clock starts).  Measured on a 2-vCPU box: 0.20-0.30s /
#: 1.8-2.2s / 21-29s, of which transpiling took 0.05s / 0.4-0.6s / 5.4-7.8s;
#: the ceilings leave headroom for shared CI runners (over 10x at 255
#: qubits, about 4x at 1023).
#: At 1023 qubits most of the rest is per-window and per-gate Python in the
#: program compile and the idle-window ops; the packed symplectic kernels
#: keep the *engine* leg near-linear (the frame state is trajectories ×
#: ceil(n/64) uint64 words).
SCALING_CURVE_CEILINGS = {63: 30.0, 255: 30.0, 1023: 120.0}

#: Ceiling (seconds) for building the 1023-qubit line device, whose
#: calibration draws 1,043,462 (qubit, link) crosstalk pairs one scalar
#: ``Generator`` call at a time into two arrays.  Measured on a 2-vCPU box:
#: 0.03-0.04s / 0.26-0.41s / 4.1-6.2s at 63 / 255 / 1023 qubits; one object
#: per pair took 12.7-12.9s at 1023.
MAX_DEVICE_BUILD_SECONDS = 15.0

#: Wall-clock fields excluded from the bit-identity comparison.
_WALL_CLOCK_FIELDS = ("transpile_s", "evaluate_s")


def _point():
    backend = Backend.from_name("heavy_hex:4")  # the 127-qubit lattice
    return hardware_scaling_point(
        backend, benchmark="MIRROR:half@7", shots=2048, trajectories=60, seed=7
    )


def test_127q_mirror_point_runs_in_seconds_on_the_stabilizer_path():
    start = time.perf_counter()
    record = _point()
    elapsed = time.perf_counter() - start

    print_section("127-qubit mirror scaling point")
    for label, value in (
        ("benchmark", record.benchmark),
        ("active qubits", record.num_active_qubits),
        ("engine", record.engine),
        ("verified", record.mirror_verified),
        ("success probability", record.success_probability),
        ("flip-free probability", record.flip_free_probability),
        ("wall time (s)", round(elapsed, 2)),
    ):
        print(f"{label:24s} {value}")

    assert elapsed < MAX_POINT_SECONDS, (
        f"127-qubit mirror point took {elapsed:.1f}s"
        f" (gate: {MAX_POINT_SECONDS}s) — the stabilizer path regressed"
    )
    assert record.benchmark == "MIRROR:63@7"
    assert record.num_active_qubits >= 48
    assert record.engine == "stabilizer_frames"
    assert record.mirror_verified, "compiled ideal output diverged from the target"
    assert record.flip_free_probability is not None
    assert 0.0 < record.flip_free_probability < 1.0
    assert 0.0 <= record.success_probability <= 1.0


def test_127q_mirror_point_is_bit_identical_across_runs():
    first = {
        k: v for k, v in asdict(_point()).items() if k not in _WALL_CLOCK_FIELDS
    }
    second = {
        k: v for k, v in asdict(_point()).items() if k not in _WALL_CLOCK_FIELDS
    }
    assert first == second


def test_mirror_scaling_curve_63_to_1023_qubits():
    """Cold end-to-end mirror points across the packed-word axis.

    63 qubits fits one 64-bit word per Pauli row, 255 takes four, 1023 takes
    sixteen — each point transpiles a full-width mirror circuit onto a line
    device, executes it on the frame engine and verifies the analytic target.
    Every width must stay under its ceiling *and* verify: a scaling curve of
    unverified points would only prove that wrong answers are fast.
    """
    print_section("mirror scaling curve (line devices)")
    header = (
        f"{'qubits':>7s} {'words':>6s} {'build_s':>8s} {'transpile_s':>12s}"
        f" {'evaluate_s':>11s} {'total_s':>8s} {'verified':>9s}"
    )
    print(header)
    rows = []
    for width, ceiling in sorted(SCALING_CURVE_CEILINGS.items()):
        start = time.perf_counter()
        backend = Backend(
            synthetic_device(
                width, edges=topologies.line(width), name=f"line_{width}"
            )
        )
        build_s = time.perf_counter() - start
        start = time.perf_counter()
        record = hardware_scaling_point(
            backend,
            benchmark=f"MIRROR:{width}@7",
            shots=2048,
            trajectories=60,
            seed=7,
        )
        elapsed = time.perf_counter() - start
        words = -(-width // 64)
        print(
            f"{width:7d} {words:6d} {build_s:8.2f} {record.transpile_s:12.2f}"
            f" {record.evaluate_s:11.2f} {elapsed:8.2f} {str(record.mirror_verified):>9s}"
        )
        rows.append((width, build_s, elapsed, ceiling, record))

    for width, build_s, elapsed, ceiling, record in rows:
        assert record.engine == "stabilizer_frames", (width, record.engine)
        assert record.mirror_verified, f"{width}-qubit mirror target diverged"
        assert record.num_active_qubits == width
        assert elapsed < ceiling, (
            f"{width}-qubit mirror point took {elapsed:.1f}s"
            f" (ceiling: {ceiling}s) — device-scale compilation or the"
            f" packed engine path regressed"
        )
        if width == 1023:
            assert build_s < MAX_DEVICE_BUILD_SECONDS, (
                f"1023-qubit line device took {build_s:.1f}s to build"
                f" (gate: {MAX_DEVICE_BUILD_SECONDS}s) — calibration generation regressed"
            )

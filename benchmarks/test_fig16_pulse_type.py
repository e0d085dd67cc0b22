"""Figure 16(d): XY4 vs IBMQ-DD vs free evolution as the idle time grows.

Paper shape: both protocols beat free evolution, and XY4 (whose pulse spacing
stays constant) increasingly outperforms the sparse IBMQ-DD pair as the idle
window grows.
"""

from repro.analysis import pulse_type_study
from repro.hardware import Backend

from repro.testing import print_section, scale


def test_fig16_pulse_type_comparison(benchmark):
    backend = Backend.from_name("ibmq_guadalupe")
    idle_times = scale(
        (2000.0, 8000.0, 16000.0),
        (1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0),
    )
    rows = benchmark(
        pulse_type_study,
        backend,
        idle_times_ns=idle_times,
        shots=scale(1024, 4096),
        max_probe_qubits=scale(6, None),
        seed=16,
    )

    print_section("Figure 16(d): mean idle-qubit fidelity vs idle time (IBMQ-Guadalupe)")
    print(f"  {'idle (us)':>10s} {'free':>8s} {'XY4':>8s} {'IBMQ-DD':>8s}")
    for row in rows:
        print(
            f"  {row['idle_ns'] / 1000:10.1f} {row['free']:8.3f} {row['xy4']:8.3f}"
            f" {row['ibmq_dd']:8.3f}"
        )

    longest = rows[-1]
    # Fidelity decays with idle time for free evolution.
    assert rows[0]["free"] >= longest["free"]
    # Both DD protocols beat free evolution at the longest idle time.
    assert longest["xy4"] > longest["free"]
    assert longest["ibmq_dd"] >= longest["free"] - 0.02
    # XY4 wins over IBMQ-DD for long idle windows (the paper's conclusion).
    assert longest["xy4"] >= longest["ibmq_dd"] - 0.01
    gaps = [row["xy4"] - row["ibmq_dd"] for row in rows]
    assert gaps[-1] >= gaps[0] - 0.05

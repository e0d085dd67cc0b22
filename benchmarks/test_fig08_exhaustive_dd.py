"""Figure 8: fidelity of QFT-6 and BV-6 for all 64 DD combinations on Toronto.

Paper shape: fidelity varies widely across combinations; for QFT, DD-on-all is
good but not optimal; for BV, DD-on-all can be counter-productive while some
selective combination still beats no-DD.
"""

from repro.analysis import dd_combination_sweep
from repro.hardware import Backend, NoisyExecutor
from repro.transpiler import transpile
from repro.workloads import get_benchmark

from repro.testing import print_section, scale


def _sweep(benchmark_name: str, shots: int):
    backend = Backend.from_name("ibmq_toronto")
    executor = NoisyExecutor(backend, seed=8, trajectories=60)
    compiled = transpile(get_benchmark(benchmark_name).build(), backend)
    return dd_combination_sweep(compiled, executor, shots=shots, max_qubits=7)


def test_fig08_exhaustive_dd_combinations(benchmark):
    shots = scale(768, 8192)

    def run():
        return {"QFT-6": _sweep("QFT-6", shots), "BV-6": _sweep("BV-6", shots)}

    sweeps = benchmark(run)

    print_section("Figure 8: fidelity for every DD combination (IBMQ-Toronto)")
    for name, rows in sweeps.items():
        values = [v for _, v in rows]
        none, everything = values[0], values[-1]
        best_bits, best = max(rows, key=lambda item: item[1])
        print(
            f"  {name:6s} min {min(values):.3f}  max {max(values):.3f} |"
            f" none {none:.3f}  all {everything:.3f}  best {best:.3f} ({best_bits})"
        )
        assert len(rows) == 2 ** len(rows[0][0])
        # The best combination beats (or at worst ties) both extremes.
        assert best >= none - 1e-9
        assert best >= everything - 1e-9

    qft_values = [v for _, v in sweeps["QFT-6"]]
    # For the idle-dominated QFT circuit, enabling DD broadly helps a lot.
    assert max(qft_values) > 1.5 * qft_values[0]
    # And the spread across combinations is significant (the paper's point).
    assert max(qft_values) - min(qft_values) > 0.05

"""Ablations of ADAPT's search (DESIGN.md section 5).

* Neighbourhood size: the localized search with groups of 4 should come close
  to what a bigger (costlier) neighbourhood finds, at a fraction of the decoy
  evaluations.
* Conservative top-2 union vs plain argmax: the union never selects fewer
  qubits and should not lose fidelity.
* Decoy shot budget: the selected assignment should be stable down to modest
  shot counts (the decoy output is low-entropy by construction).
"""

from repro.core import Adapt, AdaptConfig, compiled_ideal_distribution
from repro.hardware import Backend, NoisyExecutor
from repro.metrics import fidelity
from repro.transpiler import transpile
from repro.workloads import get_benchmark

from repro.testing import print_section, scale


def _fidelity_of(executor, compiled, assignment, shots):
    ideal = compiled_ideal_distribution(compiled)
    result = executor.run(
        compiled.physical_circuit,
        dd_assignment=assignment,
        shots=shots,
        output_qubits=compiled.output_qubits,
        gst=compiled.gst,
    )
    return fidelity(ideal, result.probabilities)


def test_ablation_neighborhood_size(benchmark):
    backend = Backend.from_name("ibmq_toronto")
    executor = NoisyExecutor(backend, seed=21, trajectories=scale(40, 120))
    compiled = transpile(get_benchmark("QFT-6A").build(), backend)
    shots = scale(1536, 8192)

    def run():
        outcomes = {}
        for group_size in (2, 4, 6):
            config = AdaptConfig(group_size=group_size, decoy_shots=scale(512, 4096))
            result = Adapt(executor, config=config, seed=21).select(compiled)
            outcomes[group_size] = {
                "evaluations": result.num_decoy_evaluations,
                "fidelity": _fidelity_of(executor, compiled, result.assignment, shots),
            }
        return outcomes

    outcomes = benchmark(run)

    print_section("Ablation: localized-search neighbourhood size (QFT-6A, Toronto)")
    for group_size, row in outcomes.items():
        print(
            f"  group={group_size}  decoy evaluations {row['evaluations']:4d}"
            f"  application fidelity {row['fidelity']:.3f}"
        )

    # Bigger neighbourhoods cost more decoy evaluations...
    assert outcomes[6]["evaluations"] > outcomes[2]["evaluations"]
    # ...but the default group of 4 achieves comparable application fidelity.
    best = max(row["fidelity"] for row in outcomes.values())
    assert outcomes[4]["fidelity"] >= best - 0.1


def test_ablation_top2_union_and_decoy_shots(benchmark):
    backend = Backend.from_name("ibmq_toronto")
    executor = NoisyExecutor(backend, seed=22, trajectories=scale(40, 120))
    compiled = transpile(get_benchmark("QPEA-5").build(), backend)
    shots = scale(1536, 8192)

    def run():
        argmax_cfg = AdaptConfig(top_k_union=1, decoy_shots=scale(512, 4096))
        union_cfg = AdaptConfig(top_k_union=2, decoy_shots=scale(512, 4096))
        low_shots_cfg = AdaptConfig(top_k_union=2, decoy_shots=scale(128, 512))
        rows = {}
        for name, config in (
            ("argmax", argmax_cfg),
            ("top2-union", union_cfg),
            ("top2-union/low-shots", low_shots_cfg),
        ):
            result = Adapt(executor, config=config, seed=22).select(compiled)
            rows[name] = {
                "num_qubits": len(result.assignment),
                "fidelity": _fidelity_of(executor, compiled, result.assignment, shots),
            }
        return rows

    rows = benchmark(run)

    print_section("Ablation: top-2 union and decoy shot budget (QPEA-5, Toronto)")
    for name, row in rows.items():
        print(f"  {name:22s} selected qubits {row['num_qubits']}  fidelity {row['fidelity']:.3f}")

    # The conservative union never selects fewer qubits than plain argmax.
    assert rows["top2-union"]["num_qubits"] >= rows["argmax"]["num_qubits"]
    # And its application fidelity does not collapse.
    assert rows["top2-union"]["fidelity"] >= rows["argmax"]["fidelity"] - 0.1
    # The selection quality degrades gracefully with fewer decoy shots.
    assert rows["top2-union/low-shots"]["fidelity"] >= rows["top2-union"]["fidelity"] - 0.15

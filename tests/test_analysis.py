"""Tests for the experiment drivers in repro.analysis (fast configurations)."""

import math

import pytest

from repro.analysis import (
    benchmark_characteristics_table,
    calibration_drift_study,
    dd_combination_sweep,
    decoy_correlation_study,
    figure1_motivation_study,
    figure3_swap_idle_study,
    format_table,
    full_device_characterization,
    hardware_characteristics_table,
    idle_characterization_circuit,
    motivation_example_circuit,
    pulse_type_study,
    relative_dd_fidelity,
    run_policy_comparison,
    single_qubit_idling_study,
    table1_idle_fractions,
    table5_summary,
    EvaluationConfig,
)
from repro.analysis.evaluation_runs import FIGURE13_BENCHMARKS
from repro.hardware import Backend, NoisyExecutor
from repro.transpiler import transpile
from repro.workloads import quantum_adder


class TestCharacterizationDrivers:
    def test_probe_circuit_structure(self, london_backend):
        circuit = idle_characterization_circuit(london_backend, 0, math.pi / 2, 2000.0, (1, 3))
        assert circuit.num_measurements == 1
        assert circuit.num_two_qubit_gates >= 1

    def test_probe_rejects_idle_qubit_on_link(self, london_backend):
        with pytest.raises(ValueError):
            idle_characterization_circuit(london_backend, 1, 0.5, 1000.0, (1, 3))

    def test_single_qubit_study_shows_crosstalk_and_dd_effect(self, london_backend):
        rows = single_qubit_idling_study(
            london_backend,
            idle_qubit=0,
            active_link=(1, 3),
            idle_ns=6000.0,
            thetas=[math.pi / 2],
            shots=1500,
        )
        assert len(rows) == 1
        assert 0.0 <= rows[0]["free"] <= 1.0
        assert rows[0]["dd"] > rows[0]["free"] - 0.05

    def test_full_device_characterization_subsampled(self, guadalupe_backend):
        records = full_device_characterization(
            guadalupe_backend,
            idle_ns=4000.0,
            thetas=[math.pi / 2],
            shots=256,
            max_combinations=6,
        )
        assert len(records) == 12  # 6 combinations x (free, dd)
        ratios = relative_dd_fidelity(records)
        assert len(ratios) == 6
        assert all(r > 0 for r in ratios)

    def test_calibration_drift_study_returns_cycles(self):
        results = calibration_drift_study(
            "ibmq_rome", idle_qubit=0, link=(2, 3), cycles=(0, 1),
            thetas=[math.pi / 2], shots=512,
        )
        assert set(results) == {0, 1}
        for rows in results.values():
            assert "relative" in rows[0]

    def test_pulse_type_study_shape(self, london_backend):
        rows = pulse_type_study(
            london_backend,
            idle_times_ns=(1000.0, 6000.0),
            shots=512,
            max_probe_qubits=2,
        )
        assert [r["idle_ns"] for r in rows] == [1000.0, 6000.0]
        for row in rows:
            assert set(row) == {"idle_ns", "free", "xy4", "ibmq_dd"}


class TestMotivationDrivers:
    def test_motivation_circuit_keeps_qubit_one_busy(self):
        circuit = motivation_example_circuit()
        assert all(1 in g.qubits for g in circuit if g.is_two_qubit)

    def test_figure1_reports_four_options(self):
        ratios = figure1_motivation_study(shots=1024)
        assert set(ratios) == {"no_dd", "dd_all", "dd_q0_only", "dd_q2_only"}
        assert ratios["no_dd"] == pytest.approx(1.0)

    def test_figure3_swap_study_shows_connectivity_penalty(self):
        sizes = (7, 8)
        records = figure3_swap_idle_study(sizes=sizes)
        constrained = {r.num_qubits: r for r in records if r.topology == "ibmq_toronto"}
        ideal = {r.num_qubits: r for r in records if r.topology == "all-to-all"}
        assert set(constrained) == set(sizes)
        for size in sizes:
            assert ideal[size].num_swaps == 0
        assert constrained[8].num_swaps >= 1
        # SWAP serialization makes the constrained machine more idle and slower.
        total_constrained = sum(constrained[s].idle_time_us for s in sizes)
        total_ideal = sum(ideal[s].idle_time_us for s in sizes)
        assert total_constrained > total_ideal
        assert constrained[8].latency_us > ideal[8].latency_us

    def test_table1_rows(self):
        rows = table1_idle_fractions(benchmarks=("ADDER-4",), shots=1024)
        row = rows[0]
        assert row["benchmark"] == "ADDER-4"
        assert 0 < row["fidelity_no_dd"] <= 1
        assert all(0 <= v <= 1 for v in row["idle_fraction"].values())


class TestDecoyAndEvaluationDrivers:
    def test_dd_combination_sweep_covers_all_combos(self, rome_backend):
        executor = NoisyExecutor(rome_backend, seed=3)
        compiled = transpile(quantum_adder(1), rome_backend)
        rows = dd_combination_sweep(compiled, executor, shots=256)
        qubits = len(compiled.gst.active_qubits())
        assert len(rows) == 2 ** qubits
        assert rows[0][0] == "0" * qubits
        assert rows[-1][0] == "1" * qubits

    def test_decoy_correlation_study_outputs(self):
        backend = Backend.from_name("ibmq_rome")
        result = decoy_correlation_study("ADDER-4", backend, decoy_kind="cdc", shots=512)
        assert -1.0 <= result.correlation <= 1.0
        assert len(result.actual_trend) == len(result.decoy_trend) == len(result.bitstrings)
        assert result.decoy_sim_time_s >= 0

    def test_policy_comparison_fast_config(self):
        backend = Backend.from_name("ibmq_rome")
        config = EvaluationConfig(
            shots=1024,
            decoy_shots=256,
            trajectories=40,
            include_runtime_best=False,
            adapt_group_size=2,
        )
        evaluation = run_policy_comparison("ADDER-4", backend, config)
        assert set(evaluation.outcomes) == {"no_dd", "all_dd", "adapt"}
        assert evaluation.outcomes["no_dd"].relative_fidelity == pytest.approx(1.0)

    def test_table5_summary_structure(self):
        backend = Backend.from_name("ibmq_rome")
        config = EvaluationConfig(
            shots=512, decoy_shots=256, trajectories=40,
            include_runtime_best=False, adapt_group_size=2,
        )
        evaluation = run_policy_comparison("ADDER-4", backend, config)
        rows = table5_summary({"ibmq_rome": [evaluation]}, policies=("all_dd", "adapt"))
        assert rows[0]["machine"] == "ibmq_rome"
        assert "adapt_gmean" in rows[0]

    def test_figure13_benchmark_list_is_in_table4(self):
        from repro.workloads import BENCHMARKS

        for name in FIGURE13_BENCHMARKS:
            assert name in BENCHMARKS


class TestTables:
    def test_hardware_table_matches_table3_regime(self):
        rows = hardware_characteristics_table()
        by_name = {row["machine"]: row for row in rows}
        assert set(by_name) == {"ibmq_guadalupe", "ibmq_paris", "ibmq_toronto"}
        toronto = by_name["ibmq_toronto"]
        assert 0.5 < toronto["cnot_error_pct"] < 5.0
        assert 50 < toronto["t1_us"] < 200

    def test_benchmark_table_covers_suite(self):
        rows = benchmark_characteristics_table()
        names = [row["benchmark"] for row in rows]
        assert len(names) == 11
        by_name = {row["benchmark"]: row for row in rows}
        # QFT-B instances are deeper and more idle than their A counterparts.
        assert by_name["QFT-6B"]["circuit_depth"] > by_name["QFT-6A"]["circuit_depth"]
        assert by_name["QFT-6B"]["avg_idle_time_us"] > by_name["BV-7"]["avg_idle_time_us"]

    def test_format_table_renders_rows(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        assert "a" in text and "b" in text
        assert "0.125" in text
        assert format_table([]) == "(no rows)"

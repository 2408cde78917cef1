"""Tests for repro.experiments.registry (run at a tiny scale)."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.campaign import run_experiment
from repro.experiments.registry import DEFINITIONS, _E7_SEED
from repro.experiments.runner import ExperimentResult

#: A deliberately tiny scale so the whole registry runs in seconds.
TINY = ExperimentScale(
    name="tiny",
    n_values=(32,),
    k_fractions=(0.5,),
    seeds=1,
    patterns_per_seed=1,
    max_slots=100_000,
    adversary_trials=2,
)


class TestRegistry:
    def test_registry_lists_all_experiments(self):
        assert set(DEFINITIONS) == {f"E{i}" for i in range(1, 12)}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99", TINY)

    def test_lookup_is_case_insensitive(self):
        result = run_experiment("e8", TINY)
        assert result.experiment == "E8"


class TestScenarioExperiments:
    def test_e1_certificates_hold(self):
        result = run_experiment("E1", TINY)
        assert isinstance(result, ExperimentResult)
        assert result.rows
        assert result.all_certificates_hold
        assert "scenario_a_latency" in result.tables

    def test_e2_certificates_hold(self):
        result = run_experiment("E2", TINY)
        assert result.all_certificates_hold
        assert any(row["protocol"] == "wakeup_with_k" for row in result.rows)

    def test_e3_certificates_hold(self):
        result = run_experiment("E3", TINY)
        assert result.all_certificates_hold
        assert all(row["latency"] <= 32 * row["bound"] for row in result.rows)

    def test_e4_lower_bound(self):
        result = run_experiment("E4", TINY)
        assert result.all_certificates_hold
        assert any(r.get("protocol") == "round_robin_exact_adversary" for r in result.rows)

    def test_e5_gap(self):
        result = run_experiment("E5", TINY)
        assert result.rows
        for row in result.rows:
            assert row["latency_c"] > 0

    def test_e6_randomized(self):
        result = run_experiment("E6", TINY)
        assert result.all_certificates_hold

    def test_e7_matrix_structure(self):
        result = run_experiment("E7", TINY)
        assert "figure1_row_traversal" in result.figures
        assert "figure2_column_alignment" in result.figures
        agreement_rows = [r for r in result.rows if "agreement" in r]
        assert agreement_rows and agreement_rows[0]["agreement"]

    def test_e7_batched_frequencies_match_per_station_loop(self):
        # The membership-frequency table is computed with one batched
        # membership_for_pairs query per (row, rho) class; the numbers must be
        # exactly what the old per-station membership_for_station loop printed.
        import numpy as np

        from repro.core.scenario_c import WakeupProtocol

        result = run_experiment("E7", TINY)
        frequency_rows = [r for r in result.rows if "empirical_probability" in r]
        assert frequency_rows
        protocol = WakeupProtocol(32, seed=_E7_SEED)
        params, matrix = protocol.params, protocol.matrix
        columns = np.arange(0, min(params.length, 2048), dtype=np.int64)
        for entry in frequency_rows:
            row, rho = entry["row"], entry["rho"]
            cols = columns[(columns % params.window) == rho]
            hits = sum(
                int(matrix.membership_for_station(u, row, cols).sum())
                for u in range(1, 33)
            )
            assert entry["empirical_probability"] == hits / (32 * cols.size)
            assert entry["expected_probability"] == 2.0 ** (-(row + rho))

    def test_e8_selective_families(self):
        result = run_experiment("E8", TINY)
        for row in result.rows:
            assert row["random_selectivity"] >= 0.95

    def test_e9_baselines(self):
        result = run_experiment("E9", TINY)
        protocols = {row["protocol"] for row in result.rows}
        assert {"wakeup_with_k", "tdma", "rpd"} <= protocols
        deterministic = [
            r for r in result.rows if r["protocol"] in ("wakeup_with_k", "tdma", "komlos_greenberg")
        ]
        assert all(r["solved"] for r in deterministic)

    def test_e10_ablations(self):
        result = run_experiment("E10", TINY)
        ablations = {row["ablation"] for row in result.rows}
        assert ablations == {"window_length", "constant_c", "waiting_rule", "interleaving"}

    def test_e11_global_vs_local_clock(self):
        result = run_experiment("E11", TINY)
        assert result.rows
        # The global-clock variants must never be worse than the horizon sentinel.
        for row in result.rows:
            assert row["wait_and_go_global"] < TINY.max_slots
            assert row["scenario_c_global"] < TINY.max_slots

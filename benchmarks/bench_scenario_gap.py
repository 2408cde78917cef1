"""Benchmark E5 — the Scenario C vs Scenario A/B gap figure."""

from __future__ import annotations

from repro.experiments.registry import experiment_e5_scenario_gap


def bench_e5(scale, family_cache):
    return experiment_e5_scenario_gap(scale, cache=family_cache)


def test_benchmark_e5_scenario_gap(run_once, scale, family_cache):
    """E5: latency of the three scenarios vs n at fixed k (the log log n gap)."""
    result = run_once(bench_e5, scale, family_cache)
    assert all(row["latency_c"] >= 1 for row in result.rows)
    print()
    print(result.summary())

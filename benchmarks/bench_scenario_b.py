"""Benchmark E2 — Scenario B (``wakeup_with_k``)."""

from __future__ import annotations

from repro.experiments.registry import experiment_e2_scenario_b


def bench_e2(scale, family_cache):
    result = experiment_e2_scenario_b(scale, cache=family_cache)
    assert result.all_certificates_hold, result.summary()
    return result


def test_benchmark_e2_scenario_b(run_once, scale, family_cache):
    """E2: worst-case latency of wakeup_with_k, including family-boundary adversaries."""
    result = run_once(bench_e2, scale, family_cache)
    print()
    print(result.summary())

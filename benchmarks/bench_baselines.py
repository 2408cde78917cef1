"""Benchmark E9 — baseline comparison."""

from __future__ import annotations

from repro.experiments.registry import experiment_e9_baselines


def bench_e9(scale, family_cache):
    result = experiment_e9_baselines(scale, cache=family_cache)
    deterministic = [
        r
        for r in result.rows
        if r["protocol"] in ("wakeup_with_k", "wakeup_scenario_c", "tdma")
    ]
    assert all(r["solved"] for r in deterministic), result.summary()
    return result


def test_benchmark_e9_baselines(run_once, scale, family_cache):
    """E9: the paper's algorithms vs TDMA, Komlós–Greenberg, ALOHA, BEB and tree splitting."""
    result = run_once(bench_e9, scale, family_cache)
    print()
    print(result.summary())

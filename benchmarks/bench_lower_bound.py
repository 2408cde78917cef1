"""Benchmark E4 — the Theorem 2.1 lower-bound adversary."""

from __future__ import annotations

from repro.experiments.registry import experiment_e4_lower_bound


def bench_e4(scale, family_cache):
    result = experiment_e4_lower_bound(scale, cache=family_cache)
    assert result.all_certificates_hold, result.summary()
    return result


def test_benchmark_e4_lower_bound(run_once, scale, family_cache):
    """E4: the replacement adversary against every protocol vs min{k, n-k+1}."""
    result = run_once(bench_e4, scale, family_cache)
    print()
    print(result.summary())

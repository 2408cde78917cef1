"""Benchmark E1 — Scenario A (``wakeup_with_s``).

Regenerates the latency-vs-(n, k) table for the algorithm of Section 3 and
asserts its bound certificate, so the benchmark doubles as a correctness
check: if the measured worst latencies stop being O(k log(n/k) + 1) the run
fails, not just slows down.
"""

from __future__ import annotations

from repro.experiments.registry import experiment_e1_scenario_a


def bench_e1(scale, family_cache):
    result = experiment_e1_scenario_a(scale, cache=family_cache)
    assert result.all_certificates_hold, result.summary()
    return result


def test_benchmark_e1_scenario_a(run_once, scale, family_cache):
    """E1: worst-case latency of wakeup_with_s across the (n, k) sweep."""
    result = run_once(bench_e1, scale, family_cache)
    print()
    print(result.summary())

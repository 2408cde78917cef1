"""Benchmark E11 — global clock vs local clock (extension experiment)."""

from __future__ import annotations

from repro.experiments.registry import experiment_e11_global_vs_local_clock


def bench_e11(scale, family_cache):
    result = experiment_e11_global_vs_local_clock(scale, cache=family_cache)
    # Every global-clock run must have finished within the horizon.
    for row in result.rows:
        assert row["wait_and_go_global"] < scale.max_slots
        assert row["scenario_c_global"] < scale.max_slots
    return result


def test_benchmark_e11_global_vs_local_clock(run_once, scale, family_cache):
    """E11: latency of the globally-clocked algorithms vs their local-clock counterparts."""
    result = run_once(bench_e11, scale, family_cache)
    print()
    print(result.summary())

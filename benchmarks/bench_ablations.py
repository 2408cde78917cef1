"""Benchmark E10 — design-choice ablations."""

from __future__ import annotations

from repro.experiments.registry import experiment_e10_ablations


def bench_e10(scale, family_cache):
    result = experiment_e10_ablations(scale, cache=family_cache)
    ablations = {row["ablation"] for row in result.rows}
    assert ablations == {"window_length", "constant_c", "waiting_rule", "interleaving"}
    return result


def test_benchmark_e10_ablations(run_once, scale, family_cache):
    """E10: window length, constant c, the wait_and_go waiting rule, and interleaving."""
    result = run_once(bench_e10, scale, family_cache)
    print()
    print(result.summary())
